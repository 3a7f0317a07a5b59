//! Storage faults on a node behind a router: each real fault crossed with
//! each storage writer of the node. In every cell the node refuses writes
//! while a writer fails (`/health/ready` answers 503 with the failed
//! I/O's text), the router keeps what the node refused, the storage
//! worker's probe heals the node within two ticks of the fault clearing
//! with no other call, and every acknowledged point is there after a
//! reopen.
//!
//! The faults act on this process only: `ENOSPC` from `/dev/full` linked
//! at the paths the writer opens next, `EFBIG` from `RLIMIT_FSIZE` (with
//! `SIGXFSZ` ignored), `EMFILE` from `RLIMIT_NOFILE` and `ENOENT` from a
//! removed directory. The resource limits apply to the whole process, so
//! this binary holds a single test, which restores each limit.
// The resource and signal numbers below are Linux's on these targets.
#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use lms::http::HttpClient;
use lms::influx::tsm::Health;
use lms::influx::{Influx, InfluxServer, RollupPolicy, StorageConfig};
use lms::router::{Router, RouterConfig};
use lms::spool::SpoolConfig;
use lms::util::{Clock, Json, Timestamp};
use std::ffi::{c_int, c_ulong};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_FSIZE: c_int = 1;
const RLIMIT_NOFILE: c_int = 7;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// Sets the soft limit of `resource` to `cur`; returns the previous one.
fn set_soft_limit(resource: c_int, cur: c_ulong) -> c_ulong {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(resource, &mut lim) }, 0);
    let old = lim.cur;
    lim.cur = cur;
    // SAFETY: `lim` is a valid `struct rlimit`, read only.
    assert_eq!(unsafe { setrlimit(resource, &lim) }, 0);
    old
}

/// The storage worker's cadence with `flush_interval` at or above 200 ms.
const TICK: Duration = Duration::from_millis(200);
/// Timestamps sit in partition 0 (2 h wide) and its 1-minute windows.
const S: i64 = 1_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Enospc,
    Efbig,
    Emfile,
    Enoent,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Writer {
    WalAppend,
    Seal,
    Compaction,
    MinuteTierWal,
}

impl Fault {
    /// The text of the I/O error the fault raises.
    fn text(self) -> &'static str {
        match self {
            Fault::Enospc => "No space left on device",
            Fault::Efbig => "File too large",
            Fault::Emfile => "Too many open files",
            Fault::Enoent => "No such file or directory",
        }
    }
}

impl Writer {
    /// The database whose engine the writer belongs to.
    fn db(self) -> &'static str {
        match self {
            Writer::MinuteTierWal => "lms__rollup_1m",
            _ => "lms",
        }
    }

    fn is_wal(self) -> bool {
        matches!(self, Writer::WalAppend | Writer::MinuteTierWal)
    }

    /// The files the writer opens next, where a full disk is planted.
    fn next_files(self, data: &Path) -> Vec<PathBuf> {
        let dir = data.join(self.db());
        let name = |seq: u64| match self.is_wal() {
            true => dir.join("wal").join(format!("{seq:016x}.wal")),
            false => dir.join(format!("seg-0-{seq:016x}.tmp")),
        };
        (0..64).map(name).filter(|p| !p.exists()).collect()
    }

    /// The directory whose removal is the writer's `ENOENT`: a log's own,
    /// or the database's, where the segment files live.
    fn removed_dir(self, data: &Path) -> PathBuf {
        match self.is_wal() {
            true => data.join(self.db()).join("wal"),
            false => data.join(self.db()),
        }
    }
}

struct Cell {
    dir: PathBuf,
    clock: Clock,
    influx: Influx,
    server: InfluxServer,
    router: Router,
    node: HttpClient,
    /// The values of the points acknowledged through the router.
    acked: Vec<i64>,
}

impl Cell {
    fn storage(dir: &Path) -> StorageConfig {
        StorageConfig {
            flush_interval: Duration::from_millis(500),
            compact_min_files: 2,
            ..StorageConfig::new(dir.join("data"))
        }
    }

    fn open(dir: &Path, clock: &Clock) -> Influx {
        let influx = Influx::open(clock.clone(), 4, Self::storage(dir)).expect("open node");
        influx.enable_rollups(RollupPolicy::default()).expect("rollups");
        influx
    }

    fn start(tag: &str) -> Cell {
        let dir = std::env::temp_dir().join(format!("lms-storage-faults-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Clock::simulated(Timestamp::from_secs(100_000));
        let influx = Self::open(&dir, &clock);
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).expect("node server");
        let config =
            RouterConfig { spool: Some(SpoolConfig::new(dir.join("spool"))), ..Default::default() };
        let router = Router::new(server.addr(), config, clock.clone(), None).expect("router");
        let node = HttpClient::connect(server.addr()).expect("node client");
        Cell { dir, clock, influx, server, router, node, acked: Vec::new() }
    }

    fn data(&self) -> PathBuf {
        self.dir.join("data")
    }

    /// Writes `n` points through the router; each is acknowledged there.
    fn write(&mut self, n: usize) {
        for _ in 0..n {
            let i = self.acked.len() as i64 + 1;
            let line = format!("m,hostname=h{} v={i}i {}", i % 3, i * 7 * S);
            assert!(self.router.handle_write(Some("lms"), &line).acked);
            self.acked.push(i);
        }
    }

    fn delivered(&self) {
        assert!(self.router.flush(Duration::from_secs(30)), "{:?}", self.router.stats().forward);
    }

    fn ready(&mut self) -> (u16, String) {
        let r = self.node.get("/health/ready").expect("/health/ready");
        (r.status, r.body_str().into_owned())
    }

    /// Brings the node to where `writer` writes next: two sealed segment
    /// files in partition 0, 1m tier rows, and fresh points that are only
    /// in the WAL (sealed as well, except for the seal writer). Every log
    /// the writer appends to has no open file, so its next append opens
    /// one.
    fn prepare(&mut self, writer: Writer) {
        for _ in 0..2 {
            self.write(5);
            self.delivered();
            self.influx.flush_storage().expect("flush");
        }
        let minute = self.influx.database("lms__rollup_1m").expect("1m tier");
        minute.flush_storage().expect("flush the 1m tier");
        self.write(5);
        self.delivered();
        if writer != Writer::Seal {
            self.influx.database("lms").unwrap().flush_storage().expect("seal");
        }
    }

    /// Runs the writer once; the 1m tier's writer is a rollup pass over
    /// what the last seal covered.
    fn run(&self, writer: Writer) -> lms::util::Result<()> {
        let db = self.influx.database("lms").unwrap();
        match writer {
            Writer::WalAppend => {
                // Straight to the node, into a measurement of its own: a
                // refused batch is acknowledged to no one.
                self.influx.write_lines("lms", &format!("d v=1 {}", 3 * S), Default::default())?;
            }
            Writer::Seal => drop(db.flush_storage()?),
            Writer::Compaction => drop(db.compact_storage()?),
            Writer::MinuteTierWal => drop(self.influx.rollup_pass("lms")?),
        }
        Ok(())
    }

    /// `(count, sum)` of the acknowledged measurement.
    fn count_and_sum(influx: &Influx) -> (i64, i64) {
        let r = influx.query("lms", "SELECT count(v), sum(v) FROM m").expect("query");
        let row = &r.series[0].values[0];
        (row[1].as_i64().unwrap(), row[2].as_i64().unwrap())
    }
}

/// Applies `fault` to `writer`, runs the writer and — for a log — ten heal
/// probes while the fault holds, then lifts every limit it set. Returns
/// the writer's outcome and the files it planted.
fn with_fault(cell: &Cell, fault: Fault, writer: Writer) -> (lms::util::Result<()>, Vec<PathBuf>) {
    let engine = cell.influx.database(writer.db()).unwrap().engine().clone();
    let probes = || {
        if writer.is_wal() {
            for _ in 0..10 {
                assert!(!engine.probe(), "{fault:?}/{writer:?}: a probe healed under the fault");
            }
        }
    };
    match fault {
        Fault::Enospc => {
            let planted = writer.next_files(&cell.data());
            for p in &planted {
                std::os::unix::fs::symlink("/dev/full", p).unwrap();
            }
            let outcome = cell.run(writer);
            probes();
            (outcome, planted)
        }
        Fault::Efbig | Fault::Emfile => {
            let (resource, cur) = match fault {
                Fault::Efbig => (RLIMIT_FSIZE, 0),
                _ => (RLIMIT_NOFILE, 0),
            };
            let saved = set_soft_limit(resource, cur);
            let outcome = cell.run(writer);
            probes();
            set_soft_limit(resource, saved);
            (outcome, Vec::new())
        }
        Fault::Enoent => {
            std::fs::remove_dir_all(writer.removed_dir(&cell.data())).unwrap();
            (cell.run(writer), Vec::new())
        }
    }
}

fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

fn cell(fault: Fault, writer: Writer) {
    let tag = format!("{fault:?}-{writer:?}");
    let mut cell = Cell::start(&tag);
    cell.prepare(writer);
    let wal_dir = cell.data().join(writer.db()).join("wal");
    let wal_before = listing(&wal_dir);

    let (outcome, planted) = with_fault(&cell, fault, writer);
    // A log whose directory vanished creates it again: nothing fails.
    let recreates = fault == Fault::Enoent && writer.is_wal();
    if recreates {
        outcome.unwrap_or_else(|e| panic!("{tag}: the log did not recreate its directory: {e}"));
        assert!(wal_dir.is_dir(), "{tag}");
        assert_eq!(cell.ready().0, 204, "{tag}");
    } else {
        let err = outcome.expect_err(&tag).to_string();
        assert!(err.contains(fault.text()), "{tag}: {err}");
        if writer.is_wal() {
            assert!(
                listing(&wal_dir).iter().all(|f| wal_before.contains(f) || planted.contains(f)),
                "{tag}: failed appends and probes left a file in {}",
                wal_dir.display()
            );
        }
        let (status, body) = cell.ready();
        assert_eq!(status, 503, "{tag}: {body}");
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("storage_degraded").and_then(Json::as_bool), Some(true), "{tag}");
        let reason = json.get("storage_reason").and_then(Json::as_str).unwrap_or_default();
        assert!(reason.starts_with(&format!("{}: ", writer.db())), "{tag}: {reason}");
        assert!(reason.contains(fault.text()), "{tag}: {reason}");
        let stats = cell.node.get("/stats").unwrap().body_str().into_owned();
        assert!(stats.contains(r#""storage_degraded":true"#), "{tag}: {stats}");
    }
    // The router acknowledges on: whatever the node refuses it keeps.
    cell.write(5);

    // The fault clears; the storage worker heals the node by itself.
    for p in &planted {
        let _ = std::fs::remove_file(p);
    }
    let cleared = Instant::now();
    let worker = cell.influx.spawn_storage_worker().expect("storage worker");
    while cell.ready().0 != 204 {
        assert!(cleared.elapsed() < Duration::from_secs(5), "{tag}: never healed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let healed = cleared.elapsed();
    assert!(healed <= 2 * TICK + Duration::from_millis(100), "{tag}: healed after {healed:?}");
    assert_eq!(cell.influx.storage_health(), Health::Ok, "{tag}");

    cell.write(5);
    cell.delivered();
    let stats = cell.router.stats();
    assert_eq!((stats.forward.rejected, stats.forward.dropped), (0, 0), "{tag}: {stats:?}");
    assert_eq!(stats.lines_rejected, 0, "{tag}");
    let n = cell.acked.len() as i64;
    let expect = (n, cell.acked.iter().sum::<i64>());
    assert_eq!(Cell::count_and_sum(&cell.influx), expect, "{tag}: live");

    // A graceful stop seals everything; what a removed directory took
    // along is rewritten from memory by the compaction that is due.
    worker.stop();
    cell.influx.compact_storage().expect("compact");
    let Cell { dir, clock, influx, server, router, .. } = cell;
    drop(router);
    server.shutdown();
    drop(influx);
    let reopened = Cell::open(&dir, &clock);
    assert_eq!(Cell::count_and_sum(&reopened), expect, "{tag}: after a reopen");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_storage_fault_degrades_shows_and_heals_without_losing_an_acked_point() {
    // SAFETY: `SIG_IGN` installs no handler code; ignoring `SIGXFSZ` only
    // makes a write past the file-size limit fail with `EFBIG` instead of
    // killing the process.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
    for fault in [Fault::Enospc, Fault::Efbig, Fault::Emfile, Fault::Enoent] {
        for writer in [Writer::WalAppend, Writer::Seal, Writer::Compaction, Writer::MinuteTierWal] {
            cell(fault, writer);
        }
    }
}
