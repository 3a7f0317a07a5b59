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
//! - a run that uses up its retries marks the node **down**: from then on
//!   workers spill every run to the **on-disk spool** without trying the
//!   node, as they spill queue overflow;
//! - a background **drainer** replays the spool in order, one coalesced
//!   run per write; that write is the only probe of a down node, and its
//!   success brings the node back;
//! - **permanent** errors (protocol violations, remote 4xx) are rejected
//!   immediately — never retried, never spooled;
//! - only when a spool append fails or the spool's size cap evicts it is
//!   a batch dropped, and then it is counted.

use crate::clients::NodeClients;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use lms_spool::{Entry, Spool, SpoolConfig};
use lms_util::rng::XorShift64;
use lms_util::scratch::ScratchDir;
use lms_util::{Result, Supervisor, SupervisorConfig, WorkerCtx, WorkerReport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Retry attempts per batch after the first try; the run that uses
    /// them up marks the node down.
    pub max_retries: u32,
    /// Worker threads draining the queue concurrently (clamped to ≥ 1).
    pub workers: usize,
    /// The durable spill-to-disk spool: overflow, exhausted retries and
    /// the batches of a down node land here for the drainer to replay.
    /// `None` spools in a scratch directory the forwarder removes when it
    /// drops, so nothing spooled there outlives it.
    pub spool: Option<SpoolConfig>,
    /// Base delay of the full-jitter exponential backoff.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-request I/O timeout on worker/drainer connections.
    pub io_timeout: Duration,
    /// Coalescing cap: after receiving a batch, a worker opportunistically
    /// drains whatever else is already queued (up to this many body bytes)
    /// and delivers runs of consecutive same-db batches as **one** HTTP
    /// write — and therefore one WAL group commit downstream; the drainer
    /// replays spooled runs the same way. `0` disables coalescing.
    /// Line-level errors inside a merged run behave exactly as they do
    /// inside a single batch: the database skips bad lines and
    /// acknowledges the rest.
    pub coalesce_bytes: usize,
    /// Drainer poll interval while the spool is empty.
    pub drain_idle: Duration,
    /// Seed for the per-worker jitter RNGs (workers derive distinct
    /// streams from it; fixed seeds give reproducible chaos tests).
    pub seed: u64,
    /// Restart policy for the supervised worker/drainer threads.
    pub supervisor: SupervisorConfig,
}

impl ForwardConfig {
    /// Defaults, which `RouterConfig::default` reads too: 1024-batch
    /// queue, 3 retries, one worker per core, 50 ms → 2 s backoff, 10 s
    /// I/O timeout, and a scratch spool.
    pub fn new(db_addr: SocketAddr) -> Self {
        ForwardConfig {
            db_addr,
            queue_capacity: 1024,
            max_retries: 3,
            workers: default_workers(),
            spool: None,
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
    /// Spooled runs the drainer is replaying *right now* (peeked and
    /// being written, not yet acknowledged). Graceful drain waits for this
    /// to reach zero so an in-flight hinted-handoff replay is never
    /// abandoned mid-write.
    pub replay_in_flight: u64,
    /// True from the moment a run used up its retries until the drainer's
    /// next successful write: workers spill without trying the node, and
    /// reads skip it.
    pub down: bool,
    /// Times the destination has been marked down.
    pub downs: u64,
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
    /// iteration, and the cluster drain path skips the spool of a down
    /// node entirely — but never an actively replaying one.
    replaying: AtomicU64,
    progress: Mutex<()>,
    progress_cv: Condvar,
    /// The node is down ([`ForwardStats::down`]).
    down: AtomicBool,
    downs: AtomicU64,
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

    fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Marks the node down, counting each time it goes down.
    fn mark_down(&self) {
        if !self.down.swap(true, Ordering::AcqRel) {
            self.downs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Handle to the forwarding worker pool and spool drainer, all supervised:
/// a panicking worker spills its in-flight batch and is restarted with
/// backoff instead of silently shrinking the pool.
pub struct Forwarder {
    tx: Option<Sender<Batch>>,
    supervisor: Supervisor,
    shared: Arc<Shared>,
    /// The spool directory without `ForwardConfig::spool`, removed after
    /// the threads that use it are joined.
    _scratch: Option<ScratchDir>,
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
        let (spool, scratch) = match &config.spool {
            Some(spool) => (spool.clone(), None),
            None => {
                let scratch = ScratchDir::new("lms-spool")?;
                (SpoolConfig::new(scratch.path()), Some(scratch))
            }
        };
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
            down: AtomicBool::new(false),
            downs: AtomicU64::new(0),
            clients: NodeClients::new(config.db_addr, config.io_timeout),
            spool: Spool::open(spool)?,
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
        Ok(Forwarder { tx: Some(tx), supervisor, shared, _scratch: scratch })
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

    /// True while the node is down ([`ForwardStats::down`]).
    pub fn is_down(&self) -> bool {
        self.shared.is_down()
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

    /// Current statistics (queue, retry, spool and outage counters in
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
            down: self.shared.is_down(),
            downs: self.shared.downs.load(Ordering::Relaxed),
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
    /// but a **down** destination does not block on its spool — hinted
    /// handoff is durable on disk and replays after the node recovers (or
    /// after a router restart). The drain still waits for the queue,
    /// in-flight worker batches, and any replay the drainer has already
    /// started, so no accepted batch is ever dropped from memory.
    pub fn flush_or_hinted(&self, timeout: Duration) -> bool {
        self.flush_until(timeout, |s| {
            s.outstanding.load(Ordering::Acquire) == 0
                && s.replaying.load(Ordering::Acquire) == 0
                && (s.spool.is_empty() || s.is_down())
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
        // finish draining the closed channel first, then return cleanly);
        // the scratch spool goes with the fields after this.
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
/// each original body separately. A down node is not tried: the run
/// spills at once, and the run that uses up its retries marks it down.
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
        if shared.is_down() {
            spill_all();
            return;
        }
        if attempt > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
        }
        match shared.clients.with(|client| client.write(db, body)) {
            Ok(()) => {
                shared.delivered.fetch_add(n, Ordering::Relaxed);
                if n > 1 {
                    shared.coalesced.fetch_add(n, Ordering::Relaxed);
                }
                return;
            }
            Err(e) if e.is_transient() => {
                if attempt == config.max_retries {
                    shared.mark_down();
                    spill_all();
                    return;
                }
                attempt += 1;
                let backoff = rng.backoff(config.backoff_base, config.backoff_cap, attempt - 1);
                std::thread::sleep(backoff);
            }
            Err(_) => {
                // Permanent (protocol) error: retrying or replaying the
                // same bytes can never succeed. The database rejects a
                // write only when *nothing* in it parses, so every batch
                // in the run was malformed (mixed runs are partially
                // accepted and land in Ok).
                shared.rejected.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Replays the spool in order, one coalesced run per write. That write
/// is the probe of a down node, and its success brings the node back; only
/// a down node with nothing spooled (its spill failed) is pinged instead.
/// A failed attempt waits out the workers' jittered backoff.
fn drainer_loop(config: &ForwardConfig, shared: &Shared, ctx: &WorkerCtx) {
    let mut rng = XorShift64::new(config.seed ^ 0xD5A1_4E55);
    let mut failures: u32 = 0;
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
        let answered = match shared.spool.peek(config.coalesce_bytes) {
            Some(entry) => replay(shared, &entry),
            None if shared.is_down() => shared.clients.with(|client| client.ping()).is_ok(),
            None => {
                shared.notify_progress();
                ctx.sleep(config.drain_idle);
                continue;
            }
        };
        if answered {
            shared.down.store(false, Ordering::Release);
            failures = 0;
        } else {
            failures += 1;
            let backoff = (failures - 1).min(16);
            ctx.sleep(rng.backoff(config.backoff_base, config.backoff_cap, backoff));
        }
    }
}

/// Writes one spooled run and acks it unless the failure was transient:
/// a permanently rejected run would wedge the spool head forever. Returns
/// whether the node answered. The run counts as in flight for the whole
/// deliver-and-ack window, so a graceful drain never abandons a replay
/// the node may already be applying; the guard settles the gauge on every
/// exit path, including a panic unwinding through the supervisor.
fn replay(shared: &Shared, entry: &Entry) -> bool {
    let _replaying = ReplayGuard::enter(shared);
    match shared.clients.with(|client| client.write(&entry.db, &entry.body)) {
        Err(e) if e.is_transient() => return false,
        Ok(()) => {}
        Err(_) => {
            shared.rejected.fetch_add(entry.records, Ordering::Relaxed);
        }
    }
    shared.spool.ack(entry);
    true
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
    use lms_http::fault::{FaultConfig, FaultProxy};
    use lms_influx::{Influx, InfluxServer};
    use lms_util::{Clock, Timestamp};
    use std::path::Path;

    impl Forwarder {
        /// The scratch spool directory, without a configured spool.
        pub(crate) fn scratch_dir(&self) -> Option<&Path> {
            self._scratch.as_ref().map(ScratchDir::path)
        }
    }

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
            spool: Some(SpoolConfig::new(spool.path())),
            queue_capacity: queue,
            max_retries: retries,
            workers,
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(2),
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

        // DB is down: the next batch retries, exhausts, marks the node
        // down and lands in the spool. A new DB on the same port picks it
        // up through the drainer — flush() alone proves it.
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
        let f = Forwarder::start(cfg(&spool, addr, 64, 2, 1)).unwrap();
        f.enqueue("lms", "m v=1 1".to_string());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f.stats().down && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = f.stats();
        assert!(s.down, "the run that used up its retries marks the node down: {s:?}");
        assert_eq!((s.retries, s.downs), (2, 1), "{s:?}");
        let retries_when_open = s.retries;

        // With the node down, further batches go straight to the spool
        // without new retry attempts, and the drainer's failing replays
        // leave it down.
        for i in 0..10 {
            f.enqueue("lms", format!("m v={i} {i}"));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().spooled < 11 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = f.stats();
        assert_eq!(s.spooled, 11, "{s:?}");
        assert_eq!(s.retries, retries_when_open, "a down node must not be retried: {s:?}");
        assert!(s.down, "{s:?}");
        assert_eq!(s.downs, 1, "{s:?}");
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
    fn a_permanent_error_at_the_spool_head_is_rejected_and_replay_goes_on() {
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        // One record per replayed write, so the malformed batch is refused
        // on its own (a mixed body is partially accepted).
        let config = ForwardConfig { coalesce_bytes: 0, ..cfg(&spool, addr, 64, 0, 1) };
        let f = Forwarder::start(config).unwrap();
        // DB down: both batches spill, the malformed one at the spool head.
        f.enqueue("lms", "completely broken line".to_string());
        f.enqueue("lms", "ok v=1 1".to_string());
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().spooled < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(f.stats().spooled, 2);
        assert!(f.stats().down);

        // DB back: the drainer's replay of the malformed batch gets a
        // permanent 400. It is acked and counted rejected, not left to
        // wedge the spool head, so the good batch still replays — flush()
        // alone proves it — and the node is up again.
        let influx2 = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let server2 = InfluxServer::start(addr, influx2.clone()).unwrap();
        assert!(f.flush(Duration::from_secs(10)));
        let s = f.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(s.replayed, 2, "{s:?}");
        assert_eq!(s.dropped, 0, "{s:?}");
        assert!(!s.down, "{s:?}");
        assert_eq!(influx2.point_count("lms"), 1);
        server2.shutdown();
    }

    #[test]
    fn a_spooled_backlog_replays_in_coalesced_runs() {
        let (server, influx) = db();
        let proxy = FaultProxy::start(server.addr(), FaultConfig::default()).unwrap();
        proxy.set_down();
        let spool = spool_dir();
        let f = Forwarder::start(cfg(&spool, proxy.addr(), 256, 0, 1)).unwrap();
        for i in 0..200 {
            f.enqueue("lms", format!("m,h=h{i} v={i} {}", i + 1));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while f.stats().spooled < 200 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(f.stats().spooled, 200, "{:?}", f.stats());

        // Back up: the drainer writes the backlog in runs of up to
        // `coalesce_bytes`, one request per head segment at most, not one
        // per spooled batch.
        let (before, ..) = proxy.stats();
        proxy.set_up();
        assert!(f.flush(Duration::from_secs(10)), "{:?}", f.stats());
        let (after, ..) = proxy.stats();
        assert_eq!(influx.point_count("lms"), 200);
        assert_eq!(f.stats().replayed, 200);
        assert!(after - before <= 4, "{} requests replayed 200 batches", after - before);
        proxy.shutdown();
        server.shutdown();
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
        // the burst queues up behind it. Its retries outlast the outage,
        // so the node is never marked down, nothing spills to the spool
        // and the drainer stays out of it.
        let (server, _ix) = db();
        let addr = server.addr();
        server.shutdown();
        let spool = spool_dir();
        let f = Forwarder::start(ForwardConfig {
            backoff_base: Duration::from_millis(150),
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
