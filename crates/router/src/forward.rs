//! Buffered, durable, retrying delivery to the database back-end.
//!
//! The router must keep accepting metrics while the database hiccups: the
//! forwarder decouples the HTTP handler from database I/O with a bounded
//! queue and a pool of worker threads that retry transient failures with
//! full-jitter exponential backoff. Workers compete for batches on the
//! shared channel and each delivery checks a kept connection out of the
//! destination's [`NodeClients`] set (shared with the spool drainer and the
//! router's query path), so delivery parallelism matches the sharded
//! engine's concurrent write path without a connection per user.
//!
//! The failure model (see `DESIGN.md` §"Delivery durability"):
//!
//! - **transient** errors (I/O, remote 5xx/429) are retried with backoff;
//! - a shared **circuit breaker** opens after N consecutive transient
//!   failures so an extended outage stops burning per-batch retry budgets;
//! - when the queue overflows, retries exhaust, or the breaker is open,
//!   batches **spill to the on-disk spool**; a background **drainer**
//!   probes the database and replays the spool in order once it is
//!   healthy again;
//! - **permanent** errors (protocol violations, remote 4xx) are rejected
//!   immediately — never retried, never spooled;
//! - only when a spool append fails or the spool's size cap evicts it is
//!   a batch dropped, and then it is counted.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::clients::NodeClients;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use lms_spool::{Spool, SpoolConfig};
use lms_util::rng::XorShift64;
use lms_util::{Result, Supervisor, SupervisorConfig, WorkerCtx, WorkerReport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One unit of forwarding work.
#[derive(Debug)]
struct Batch {
    db: String,
    body: String,
}

/// Forwarder configuration.
#[derive(Debug, Clone)]
pub struct ForwardConfig {
    /// The database server to deliver to.
    pub db_addr: SocketAddr,
    /// Bounded queue capacity (batches).
    pub queue_capacity: usize,
    /// Retry attempts per batch after the first try.
    pub max_retries: u32,
    /// Worker threads draining the queue concurrently (clamped to ≥ 1).
    pub workers: usize,
    /// The durable spill-to-disk spool: overflow, exhausted retries and
    /// batches met by an open breaker land here for the drainer to replay.
    pub spool: SpoolConfig,
    /// Circuit-breaker tuning for the destination.
    pub breaker: BreakerConfig,
    /// Base delay of the full-jitter exponential backoff.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-request I/O timeout on worker/drainer connections.
    pub io_timeout: Duration,
    /// Coalescing cap: after receiving a batch, a worker opportunistically
    /// drains whatever else is already queued (up to this many body bytes)
    /// and delivers runs of consecutive same-db batches as **one** HTTP
    /// write — and therefore one WAL group commit downstream. `0` disables
    /// coalescing. Line-level errors inside a merged run behave exactly as
    /// they do inside a single batch: the database skips bad lines and
    /// acknowledges the rest.
    pub coalesce_bytes: usize,
    /// Drainer poll interval while the spool is empty or the breaker open.
    pub drain_idle: Duration,
    /// Seed for the per-worker jitter RNGs (workers derive distinct
    /// streams from it; fixed seeds give reproducible chaos tests).
    pub seed: u64,
    /// Restart policy for the supervised worker/drainer threads.
    pub supervisor: SupervisorConfig,
}

impl ForwardConfig {
    /// Defaults, which `RouterConfig::default` reads too: 1024-batch
    /// queue, 3 retries, one worker per core, 5-failure/1 s breaker,
    /// 50 ms → 2 s backoff, 10 s I/O timeout, and a spool at a fresh
    /// `lms-spool-<pid>-<n>` path under [`std::env::temp_dir`] that
    /// outlives the forwarder (set `spool` to choose where it lives).
    pub fn new(db_addr: SocketAddr) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let spool = std::env::temp_dir().join(format!("lms-spool-{}-{n}", std::process::id()));
        ForwardConfig {
            db_addr,
            queue_capacity: 1024,
            max_retries: 3,
            workers: default_workers(),
            spool: SpoolConfig::new(spool),
            breaker: BreakerConfig::default(),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            coalesce_bytes: 256 * 1024,
            drain_idle: Duration::from_millis(100),
            seed: 0x1a55_eed7,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Forwarder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Batches delivered successfully from the queue.
    pub delivered: u64,
    /// Batches rejected on permanent (protocol) errors — never retried.
    pub rejected: u64,
    /// Batches lost: spool append failures and spool cap evictions.
    pub dropped: u64,
    /// Batches spilled to the on-disk spool.
    pub spooled: u64,
    /// Spooled batches replayed into the database.
    pub replayed: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Batches delivered as part of a coalesced (merged) write.
    pub coalesced: u64,
    /// Spooled batches still awaiting replay.
    pub spool_pending: u64,
    /// Spooled batches the drainer is replaying *right now* (peeked and
    /// being written, not yet acknowledged). Graceful drain waits for this
    /// to reach zero so an in-flight hinted-handoff replay is never
    /// abandoned mid-write.
    pub replay_in_flight: u64,
    /// Times the destination's circuit breaker has opened.
    pub breaker_opens: u64,
    /// Circuit-breaker state for the destination.
    pub breaker: BreakerState,
}

struct Shared {
    delivered: AtomicU64,
    rejected: AtomicU64,
    dropped: AtomicU64,
    spooled: AtomicU64,
    retries: AtomicU64,
    coalesced: AtomicU64,
    /// Batches accepted into the queue and not yet fully processed
    /// (queued + in flight). `flush` waits for this to reach zero, which
    /// closes the old "queue empty but worker still writing" race.
    outstanding: AtomicU64,
    /// Spool entries the drainer has peeked and is currently delivering.
    /// Graceful drain waits on this too: `spool_pending` alone can reach
    /// zero via a permanent-error ack while the drainer is still mid-
    /// iteration, and the cluster drain path skips the spool of an
    /// unreachable node entirely — but never an actively replaying one.
    replaying: AtomicU64,
    progress: Mutex<()>,
    progress_cv: Condvar,
    breaker: CircuitBreaker,
    /// Kept connections to the destination, for every user of it.
    clients: NodeClients,
    spool: Spool,
    /// Queue capacity, for the saturation signal.
    capacity: u64,
    /// Fault injection: pending drainer panics (each iteration consumes
    /// one); exercises the supervisor's restart path in tests.
    drainer_panics: AtomicU64,
}

impl Shared {
    fn notify_progress(&self) {
        let _guard = self.progress.lock().expect("progress lock");
        self.progress_cv.notify_all();
    }

    /// Spills a batch to the spool, or counts it dropped when the append
    /// fails. Returns true when the batch is durably held (spooled), false
    /// when it was dropped — the cluster write path uses this to decide
    /// whether a node-batch still counts toward the write quorum.
    fn spill(&self, db: &str, body: &str) -> bool {
        let held = self.spool.append(db, body).is_ok();
        let counter = if held { &self.spooled } else { &self.dropped };
        counter.fetch_add(1, Ordering::Relaxed);
        held
    }
}

/// Handle to the forwarding worker pool and spool drainer, all supervised:
/// a panicking worker spills its in-flight batch and is restarted with
/// backoff instead of silently shrinking the pool.
pub struct Forwarder {
    tx: Option<Sender<Batch>>,
    supervisor: Supervisor,
    shared: Arc<Shared>,
}

/// The default worker-pool size: one per available core, at least two so
/// one slow/retrying delivery cannot stall the whole queue.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2)
}

impl Forwarder {
    /// Starts the worker pool and the spool drainer. Fails only when the
    /// spool directory is unusable.
    pub fn start(config: ForwardConfig) -> Result<Self> {
        let (tx, rx): (Sender<Batch>, Receiver<Batch>) = bounded(config.queue_capacity.max(1));
        let spool = Spool::open(config.spool.clone())?;
        let shared = Arc::new(Shared {
            delivered: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            spooled: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            replaying: AtomicU64::new(0),
            progress: Mutex::new(()),
            progress_cv: Condvar::new(),
            breaker: CircuitBreaker::new(config.breaker),
            clients: NodeClients::new(config.db_addr, config.io_timeout),
            spool,
            capacity: config.queue_capacity.max(1) as u64,
            drainer_panics: AtomicU64::new(0),
        });
        let supervisor = Supervisor::new(config.supervisor.clone());
        for i in 0..config.workers.max(1) {
            let shared = shared.clone();
            let rx = rx.clone();
            let config = config.clone();
            supervisor.spawn(&format!("forwarder-{i}"), move |_ctx| {
                worker_loop(&rx, &config, &shared, i as u64)
            })?;
        }
        let drainer = shared.clone();
        supervisor.spawn("spool-drainer", move |ctx| drainer_loop(&config, &drainer, ctx))?;
        Ok(Forwarder { tx: Some(tx), supervisor, shared })
    }

    /// Enqueues a batch. On a full queue the **new** batch spills to the
    /// spool (back-pressure would stall the HTTP handler; collectors must
    /// never block).
    ///
    /// Returns true when the batch was **accepted** — queued for delivery
    /// or durably spooled. False means it was dropped and counted (full
    /// queue and a failed spool append); the cluster write path counts
    /// such a node-batch against the write quorum.
    pub fn enqueue(&self, db: &str, body: String) -> bool {
        if body.is_empty() {
            return true;
        }
        let tx = self.tx.as_ref().expect("forwarder running");
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(Batch { db: db.to_string(), body }) {
            Ok(()) => true,
            Err(TrySendError::Full(b)) | Err(TrySendError::Disconnected(b)) => {
                let held = self.shared.spill(&b.db, &b.body);
                self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
                self.shared.notify_progress();
                held
            }
        }
    }

    /// The destination's kept connections: the set this forwarder's
    /// workers and drainer draw from, for the router's reads of the same
    /// node to share.
    pub fn clients(&self) -> &NodeClients {
        &self.shared.clients
    }

    /// True when the delivery pipeline is saturated: as many batches are
    /// queued or in flight as the queue can hold, so a new bulk batch
    /// would overflow straight to the spool. The router uses this as its
    /// load-shedding signal for low-priority writes.
    pub fn saturated(&self) -> bool {
        self.shared.outstanding.load(Ordering::Acquire) >= self.shared.capacity
    }

    /// Readiness of the supervised worker/drainer threads: `false` while
    /// any of them is mid-restart or has exhausted its restart budget.
    pub fn workers_ready(&self) -> bool {
        self.supervisor.is_ready()
    }

    /// Health reports of the supervised worker/drainer threads.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.supervisor.reports()
    }

    /// Fault injection: make the spool drainer panic on its next `n`
    /// iterations (each iteration consumes one pending panic).
    pub fn inject_drainer_panics(&self, n: u64) {
        self.shared.drainer_panics.store(n, Ordering::SeqCst);
    }

    /// Current statistics (queue, retry, spool and breaker counters in
    /// one consistent-enough snapshot).
    pub fn stats(&self) -> ForwardStats {
        let spool = self.shared.spool.stats();
        ForwardStats {
            delivered: self.shared.delivered.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed) + spool.evicted,
            spooled: self.shared.spooled.load(Ordering::Relaxed),
            replayed: spool.replayed,
            retries: self.shared.retries.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            spool_pending: spool.pending,
            replay_in_flight: self.shared.replaying.load(Ordering::Acquire),
            breaker_opens: self.shared.breaker.opens(),
            breaker: self.shared.breaker.state(),
        }
    }

    /// Blocks until every accepted batch has been fully resolved —
    /// queue empty, **no batch in flight in any worker**, no replay in
    /// flight in the drainer, and the spool drained — or the timeout
    /// expires. Returns true when fully drained.
    pub fn flush(&self, timeout: Duration) -> bool {
        self.flush_until(timeout, |s| {
            s.outstanding.load(Ordering::Acquire) == 0
                && s.replaying.load(Ordering::Acquire) == 0
                && s.spool.is_empty()
        })
    }

    /// Graceful-drain variant for cluster destinations: like [`Self::flush`],
    /// but an **unreachable** destination (breaker open) does not block on
    /// its spool — hinted handoff is durable on disk and replays after the
    /// node recovers (or after a router restart). The drain still waits
    /// for the queue, in-flight worker batches, and any replay the
    /// drainer has already started, so no accepted batch is ever dropped
    /// from memory.
    pub fn flush_or_hinted(&self, timeout: Duration) -> bool {
        self.flush_until(timeout, |s| {
            s.outstanding.load(Ordering::Acquire) == 0
                && s.replaying.load(Ordering::Acquire) == 0
                && (s.spool.is_empty() || s.breaker.state() == BreakerState::Open)
        })
    }

    fn flush_until(&self, timeout: Duration, done: impl Fn(&Shared) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.shared.progress.lock().expect("progress lock");
        loop {
            if done(&self.shared) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Bounded waits guard against a missed wake-up (e.g. spool
            // counters changed by eviction without a notification).
            let wait = (deadline - now).min(Duration::from_millis(50));
            let (g, _) = self
                .shared
                .progress_cv
                .wait_timeout(guard, wait)
                .expect("progress lock");
            guard = g;
        }
    }
}

impl Drop for Forwarder {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers drain and exit
        // Stops the drainer and joins every supervised thread (workers
        // finish draining the closed channel first, then return cleanly).
        self.supervisor.shutdown();
    }
}

fn worker_loop(rx: &Receiver<Batch>, config: &ForwardConfig, shared: &Shared, index: u64) {
    let mut rng = XorShift64::new(config.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    loop {
        let first = match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(b) => b,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Opportunistic pickup: whatever is already queued rides along
        // with the batch just received, up to the coalescing byte cap.
        // Under a backlog this turns N queued batches into one delivery
        // per db run instead of N round trips.
        let mut group = vec![first];
        if config.coalesce_bytes > 0 {
            let mut bytes = group[0].body.len();
            while bytes < config.coalesce_bytes {
                match rx.try_recv() {
                    Ok(b) => {
                        bytes += b.body.len();
                        group.push(b);
                    }
                    Err(_) => break,
                }
            }
        }
        // Deliver runs of consecutive same-db batches together; order
        // within a db is preserved.
        let mut i = 0;
        while i < group.len() {
            let mut j = i + 1;
            while j < group.len() && group[j].db == group[i].db {
                j += 1;
            }
            let run = &group[i..j];
            // A panic mid-delivery must not lose accepted batches or
            // leave `outstanding` stuck (which would wedge flush()
            // forever): spill the run, settle the counters, then
            // re-raise so the supervisor records the panic and restarts
            // this worker with backoff.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                process_run(run, config, shared, &mut rng);
            }));
            if let Err(panic) = result {
                // Spill *before* settling `outstanding`: a flush() racing
                // this panic must not observe zero while the run exists
                // only in memory — the spool write makes it durable first.
                for b in run {
                    shared.spill(&b.db, &b.body);
                }
                shared.outstanding.fetch_sub(run.len() as u64, Ordering::AcqRel);
                shared.notify_progress();
                std::panic::resume_unwind(panic);
            }
            shared.outstanding.fetch_sub(run.len() as u64, Ordering::AcqRel);
            shared.notify_progress();
            i = j;
        }
    }
}

/// Delivers a run of same-db batches as one write (merged when the run
/// holds more than one). Accounting stays per-batch: success counts every
/// batch delivered (and marks merged ones `coalesced`); giving up spills
/// each original body separately so spool replay granularity is unchanged.
fn process_run(
    run: &[Batch],
    config: &ForwardConfig,
    shared: &Shared,
    rng: &mut XorShift64,
) {
    let spill_all = || {
        for b in run {
            shared.spill(&b.db, &b.body);
        }
    };
    // Breaker already open: spill immediately instead of burning a full
    // retry/backoff budget per run.
    if !shared.breaker.allow() {
        spill_all();
        return;
    }
    let db = &run[0].db;
    let merged;
    let body = match run {
        [only] => only.body.as_str(),
        _ => {
            merged = run.iter().map(|b| b.body.as_str()).collect::<Vec<_>>().join("\n");
            merged.as_str()
        }
    };
    let n = run.len() as u64;
    let mut attempt = 0u32;
    loop {
        if attempt > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(rng.backoff(config.backoff_base, config.backoff_cap, attempt - 1));
            // Consult the breaker only *after* the backoff: allow() may
            // claim the single half-open probe slot, and holding it
            // through the sleep would block the drainer and every other
            // worker from delivering for the whole backoff.
            if !shared.breaker.allow() {
                spill_all();
                return;
            }
        }
        match shared.clients.with(|client| client.write(db, body)) {
            Ok(()) => {
                shared.delivered.fetch_add(n, Ordering::Relaxed);
                if n > 1 {
                    shared.coalesced.fetch_add(n, Ordering::Relaxed);
                }
                shared.breaker.record_success();
                return;
            }
            Err(e) if e.is_transient() => {
                shared.breaker.record_failure();
                attempt += 1;
                // `state()` (not `allow()`): a plain read cannot claim
                // the probe slot this arm would then never report on.
                let give_up =
                    attempt > config.max_retries || shared.breaker.state() == BreakerState::Open;
                if give_up {
                    spill_all();
                    return;
                }
            }
            Err(_) => {
                // Permanent (protocol) error: retrying or replaying the
                // same bytes can never succeed. The database rejects a
                // write only when *nothing* in it parses, so every batch
                // in the run was malformed (mixed runs are partially
                // accepted and land in Ok). The destination *did* answer,
                // so report success: that releases a half-open probe
                // claimed by allow() — left claimed it would wedge the
                // breaker HalfOpen forever — and resets the failure streak.
                shared.breaker.record_success();
                shared.rejected.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Replays spooled batches in order once the database is healthy. The
/// drainer owns the half-open probe: after the breaker's cool-down it
/// pings, and a healthy answer starts the replay (which closes the
/// breaker for the workers too).
fn drainer_loop(config: &ForwardConfig, shared: &Shared, ctx: &WorkerCtx) {
    let spool = &shared.spool;
    let mut rng = XorShift64::new(config.seed ^ 0xD5A1_4E55);
    let mut failures: u32 = 0;
    // Health probe before replaying a backlog: at start and again after
    // every transient failure.
    let mut probe = true;
    while !ctx.should_stop() {
        // Fault injection: consume one pending panic per iteration so
        // tests can exercise the supervisor's restart/budget path.
        if shared
            .drainer_panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected spool drainer panic");
        }
        let Some(entry) = spool.peek() else {
            shared.notify_progress();
            ctx.sleep(config.drain_idle);
            continue;
        };
        if !shared.breaker.allow() {
            ctx.sleep(config.drain_idle);
            continue;
        }
        // Mark the replay in flight for the whole deliver-and-ack window
        // so a graceful drain never abandons a replay the destination may
        // already be applying. The guard settles the gauge on every exit
        // path, including a panic unwinding through the supervisor.
        let backoff = {
            let _replaying = ReplayGuard::enter(shared);
            let result = shared.clients.with(|client| {
                if probe {
                    client.ping()?;
                }
                client.write(&entry.db, &entry.body)
            });
            probe = matches!(&result, Err(e) if e.is_transient());
            match result {
                Ok(()) => {
                    spool.ack(&entry);
                    shared.breaker.record_success();
                    failures = 0;
                    None
                }
                Err(e) if e.is_transient() => {
                    shared.breaker.record_failure();
                    failures += 1;
                    Some(rng.backoff(
                        config.backoff_base,
                        config.backoff_cap,
                        (failures - 1).min(16),
                    ))
                }
                Err(_) => {
                    // Permanent: this batch would wedge the spool head
                    // forever; reject it and move on. The destination
                    // answered, so report success to release the half-open
                    // probe this delivery may hold — otherwise the breaker
                    // stays wedged HalfOpen and the spool never drains.
                    shared.breaker.record_success();
                    spool.ack(&entry);
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    failures = 0;
                    None
                }
            }
            // Guard drops here: progress (incl. the gauge reaching zero)
            // is notified by the guard itself, and the backoff sleep below
            // must not count as "replay in flight".
        };
        if let Some(backoff) = backoff {
            ctx.sleep(backoff);
        }
    }
}

/// RAII marker for a drainer replay in flight: increments the gauge on
/// entry and settles it (with a progress notification for waiting
/// flushes) on every exit path, including panics.
struct ReplayGuard<'a> {
    shared: &'a Shared,
}

impl<'a> ReplayGuard<'a> {
    fn enter(shared: &'a Shared) -> Self {
        shared.replaying.fetch_add(1, Ordering::AcqRel);
        ReplayGuard { shared }
    }
}

impl Drop for ReplayGuard<'_> {
    fn drop(&mut self) {
        self.shared.replaying.fetch_sub(1, Ordering::AcqRel);
        self.shared.notify_progress();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::{Influx, InfluxServer};
    use lms_util::scratch::ScratchDir;
    use lms_util::{Clock, Timestamp};

    fn db() -> (InfluxServer, Influx) {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        (server, influx)
    }

    /// A spool directory, removed after the forwarder that uses it.
    fn spool_dir() -> ScratchDir {
        ScratchDir::new("lms-fwd").unwrap()
    }

    fn cfg(
        spool: &ScratchDir,
        addr: SocketAddr,
        queue: usize,
        retries: u32,
        workers: usize,
    ) -> ForwardConfig {
        ForwardConfig {
            spool: SpoolConfig::new(spool.path()),
            queue_capacity: queue,
            max_retries: retries,
            workers,
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(2),
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_for: Duration::from_millis(100),
            },
            drain_idle: Duration::from_millis(20),
            seed: 42,
            ..ForwardConfig::new(addr)
        }
    }

    #[test]
    fn delivers_batches() {
        let (server, influx) = db();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, server.addr(), 64, 2, 2)).unwrap();
        f.enqueue("lms", "m v=1 1\nm v=2 2".to_string());
        f.enqueue("lms", "m v=3 3".to_string());
        assert!(f.flush(Duration::from_secs(5)));
        // flush() returning means delivery completed — no settling sleep.
        assert_eq!(influx.point_count("lms"), 3);
        assert_eq!(f.stats().delivered, 2);
        assert_eq!(f.stats().dropped, 0);
        server.shutdown();
    }

    #[test]
    fn empty_batches_are_skipped() {
        let (server, _influx) = db();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, server.addr(), 4, 0, 1)).unwrap();
        f.enqueue("lms", String::new());
        assert!(f.flush(Duration::from_secs(1)));
        assert_eq!(f.stats(), ForwardStats::default());
        server.shutdown();
    }

    #[test]
    fn survives_database_restart_via_spool() {
        let (server, _old) = db();
        let addr = server.addr();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, addr, 64, 5, 2)).unwrap();
        f.enqueue("lms", "m v=1 1".to_string());
        assert!(f.flush(Duration::from_secs(5)));
        server.shutdown();

        // DB is down: the next batch retries, trips the breaker or
        // exhausts, and lands in the spool. A new DB on the same port
        // picks it up through the drainer — flush() alone proves it.
        f.enqueue("lms", "m v=2 2".to_string());
        std::thread::sleep(Duration::from_millis(100));
        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(2000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        assert!(f.flush(Duration::from_secs(10)));
        assert_eq!(influx2.point_count("lms"), 1);
        assert!(f.stats().retries > 0);
        assert_eq!(f.stats().dropped, 0);
        server2.shutdown();
    }

    #[test]
    fn overflow_spills_to_spool_and_loses_nothing() {
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, addr, 2, 1, 1)).unwrap();
        for i in 0..50 {
            f.enqueue("lms", format!("m v={i} {i}"));
        }
        // Everything lands in the spool (the DB is down); nothing is lost.
        let deadline = Instant::now() + Duration::from_secs(10);
        while f.stats().spooled < 50 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let s = f.stats();
        assert_eq!(s.dropped, 0, "{s:?}");
        assert_eq!(s.spooled, 50, "{s:?}");

        // Bring the DB back: the drainer replays every spooled batch.
        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(3000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        assert!(f.flush(Duration::from_secs(15)));
        assert_eq!(influx2.point_count("lms"), 50);
        assert_eq!(f.stats().replayed, 50);
        server2.shutdown();
    }

    #[test]
    fn breaker_opens_and_batches_bypass_retries() {
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        let f = Forwarder::start(ForwardConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_for: Duration::from_secs(60),
            },
            ..cfg(&spool, addr, 64, 10, 1)
        })
        .unwrap();
        f.enqueue("lms", "m v=1 1".to_string());
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().breaker != BreakerState::Open && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(f.stats().breaker, BreakerState::Open);
        let retries_when_open = f.stats().retries;

        // With the breaker open, further batches go straight to the spool
        // without new retry attempts.
        for i in 0..10 {
            f.enqueue("lms", format!("m v={i} {i}"));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().spooled < 11 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = f.stats();
        assert_eq!(s.spooled, 11, "{s:?}");
        assert_eq!(s.retries, retries_when_open, "open breaker must not retry: {s:?}");
    }

    #[test]
    fn permanent_errors_are_rejected_not_spooled() {
        let (server, influx) = db();
        let spool = spool_dir();
        let f = Forwarder::start(ForwardConfig {
            // With one worker the two enqueues below could merge, and the
            // database partially accepts a mixed body — disable coalescing
            // so the malformed batch is refused on its own.
            coalesce_bytes: 0,
            ..cfg(&spool, server.addr(), 64, 3, 1)
        })
        .unwrap();
        // The database answers 404 for a missing db only on query; for
        // writes, a malformed batch yields 400 — a permanent error.
        f.enqueue("lms", "completely broken line".to_string());
        f.enqueue("lms", "ok v=1 1".to_string());
        assert!(f.flush(Duration::from_secs(5)));
        let s = f.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(s.delivered, 1, "{s:?}");
        assert_eq!(s.spooled, 0, "{s:?}");
        assert_eq!(s.retries, 0, "permanent errors must not be retried: {s:?}");
        assert_eq!(influx.point_count("lms"), 1);
        server.shutdown();
    }

    #[test]
    fn permanent_error_on_half_open_probe_releases_breaker() {
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        let config = ForwardConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_for: Duration::from_millis(50),
            },
            ..cfg(&spool, addr, 64, 0, 1)
        };
        let f = Forwarder::start(config.clone()).unwrap();
        // DB down: both batches spill, the malformed one at the spool head.
        f.enqueue("lms", "completely broken line".to_string());
        f.enqueue("lms", "ok v=1 1".to_string());
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().spooled < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(f.stats().spooled, 2);

        // DB back: the drainer's half-open probe hits the malformed batch
        // and gets a permanent 400. The breaker must be released (not
        // stay wedged HalfOpen with the probe claimed) so the good batch
        // still replays — flush() alone proves it.
        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        assert!(f.flush(Duration::from_secs(10)));
        let s = f.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(s.replayed, 2, "{s:?}");
        assert_eq!(s.dropped, 0, "{s:?}");
        assert_eq!(influx2.point_count("lms"), 1);

        // A worker that claims the probe owes the same release, for a lone
        // batch and for a coalesced run alike. The spool is empty now, so
        // the drainer never touches the breaker: trip it, wait out the
        // cool-down, and the run's own allow() is the half-open probe.
        for bodies in [&["still broken"][..], &["broken again", "and again"]] {
            f.shared.breaker.record_failure();
            assert_eq!(f.shared.breaker.state(), BreakerState::Open);
            std::thread::sleep(config.breaker.open_for * 2);
            let batch = |body: &&str| Batch { db: "lms".into(), body: body.to_string() };
            let run: Vec<Batch> = bodies.iter().map(batch).collect();
            process_run(&run, &config, &f.shared, &mut XorShift64::new(1));
            assert_eq!(f.shared.breaker.state(), BreakerState::Closed, "{bodies:?}");
        }
        assert_eq!(f.stats().rejected, 4, "one from the drainer, three from the runs");
        server2.shutdown();
    }

    #[test]
    fn spool_survives_forwarder_restart() {
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        {
            let f = Forwarder::start(cfg(&spool, addr, 64, 1, 2)).unwrap();
            for i in 0..5 {
                f.enqueue("lms", format!("m v={i} {i}"));
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while f.stats().spooled < 5 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            assert_eq!(f.stats().spooled, 5);
        } // forwarder drops — simulated crash/restart

        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(2000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        let f = Forwarder::start(cfg(&spool, addr, 64, 1, 2)).unwrap();
        assert!(f.flush(Duration::from_secs(10)));
        assert_eq!(influx2.point_count("lms"), 5);
        assert_eq!(f.stats().replayed, 5);
        server2.shutdown();
    }

    #[test]
    fn coalesces_queued_backlog_into_fewer_deliveries() {
        // Reserve an address, then take the database down so the single
        // worker's first batch sits in retry backoff while the rest of
        // the burst queues up behind it. The breaker never opens, so
        // nothing spills to the spool and the drainer stays out of it.
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        let f = Forwarder::start(ForwardConfig {
            backoff_base: Duration::from_millis(150),
            breaker: BreakerConfig { failure_threshold: u32::MAX, ..BreakerConfig::default() },
            ..cfg(&spool, addr, 64, 40, 1)
        })
        .unwrap();
        f.enqueue("lms", "m v=0 100000000000".to_string());
        for i in 1..21u32 {
            f.enqueue("lms", format!("m v={i} {}000000000", 100 + i));
        }
        // Bring the database back: the worker delivers the first batch,
        // then picks up the whole queued backlog as merged runs.
        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(5000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        assert!(f.flush(Duration::from_secs(15)));
        let s = f.stats();
        assert_eq!(s.delivered, 21, "{s:?}");
        assert_eq!(s.dropped, 0, "{s:?}");
        assert_eq!(s.rejected, 0, "{s:?}");
        assert!(s.coalesced >= 2, "queued burst should merge: {s:?}");
        assert_eq!(influx2.point_count("lms"), 21);
        server2.shutdown();
    }

    #[test]
    fn worker_pool_drains_concurrently() {
        let (server, influx) = db();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, server.addr(), 256, 2, 4)).unwrap();
        for i in 0..40 {
            f.enqueue("lms", format!("m,w=a v={i} {i}"));
        }
        assert!(f.flush(Duration::from_secs(10)));
        // flush() waits for in-flight batches too — assert immediately.
        assert_eq!(f.stats().delivered, 40);
        assert_eq!(influx.point_count("lms"), 40);
        server.shutdown();
    }

    #[test]
    fn default_workers_is_at_least_two() {
        assert!(default_workers() >= 2);
    }
}
