//! Gates on what a statement costs that do not depend on how fast the box
//! is: heap allocations and allocated bytes, counted.
//!
//! - A job view's statements each name one host. A node answers one by
//!   reading that host's series, found through the tag postings, so what
//!   it costs must not grow with the rest of the measurement: the same
//!   statement over a measurement of 100 series and one of 10,000 must
//!   allocate the same number of times.
//! - Sealed blocks hold a regular scrape at least 4× smaller than the
//!   in-memory points.
//! - An aggregate over sealed blocks that their summaries cover decodes
//!   nothing: it allocates fewer bytes than one decoded block, and answers
//!   exactly as the same statement over the mutable head does.
//! - A month of 1h windows served from the 1h rollup tier allocates at
//!   most a tenth of the raw full decode, and answers the same.
//!
//! The counters are process-wide, so the tests take turns on [`TURN`].

use lms_influx::{Influx, QueryResult, QueryTuning, RollupPolicy, StorageConfig, Tier};
use lms_lineproto::FieldValue;
use lms_util::{Clock, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are relaxed statistics that publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // A grown block counts by its growth, so a vector that doubles its
        // way to n bytes has allocated n.
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole run, so no other test's allocations
/// land between a measurement's two readings.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(allocations, bytes)` made while answering `q`, and the answer.
fn cost(ix: &Influx, q: &str) -> ((u64, u64), QueryResult) {
    let (calls, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let answer = ix.query("lms", q).unwrap();
    let spent =
        (ALLOCATIONS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes);
    (spent, answer)
}

/// A data directory removed when the test ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("lms-read-alloc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of one decoded point, as a block decodes to and a head holds it.
const POINT_BYTES: u64 = std::mem::size_of::<(i64, FieldValue)>() as u64;

/// Writes `cpu,hostname=h<s> busy=<v>` for `series` hosts, `points` samples
/// each, `step_ns` apart from `step_ns` on. The values are quarter steps in
/// `[0, 100)`: compressible like a utilisation, not constant, and dyadic,
/// so sums in any order are exact.
fn load_busy(ix: &Influx, series: usize, points: usize, step_ns: i64) {
    const CHUNK: usize = 5_000;
    let mut body = String::with_capacity(CHUNK * 48);
    for s in 0..series {
        for start in (0..points).step_by(CHUNK) {
            body.clear();
            for i in start..(start + CHUNK).min(points) {
                let ts = (i as i64 + 1) * step_ns;
                let busy = ((i * 37 + s * 11) % 400) as f64 * 0.25;
                body.push_str(&format!("cpu,hostname=h{s} busy={busy} {ts}\n"));
            }
            ix.write_lines("lms", &body, Default::default()).unwrap();
        }
    }
}

/// The scrape dataset: 20 hosts sampled once a second for 50,000 s, so
/// every 1h block but each series' last is full.
const SERIES: usize = 20;
const POINTS_PER_SERIES: usize = 50_000;
const STEP_NS: i64 = 1_000_000_000;

/// The scrape dataset written into a persistent database and flushed
/// whole into sealed blocks. The clock sits past the data, so a windowed
/// statement's bounded end is not clamped short by `now`.
fn sealed_scrape(dir: &TempDir) -> Influx {
    let clock = Clock::simulated(Timestamp::from_secs(60_000));
    let ix = Influx::open(clock, 8, StorageConfig::new(&dir.0)).unwrap();
    load_busy(&ix, SERIES, POINTS_PER_SERIES, STEP_NS);
    ix.flush_storage().unwrap();
    let stats = ix.storage_stats();
    assert_eq!(stats.head_points, 0, "the flush seals every point");
    assert_eq!(stats.sealed_points, (SERIES * POINTS_PER_SERIES) as u64);
    ix
}

const STATEMENT: &str = "SELECT mean(v) FROM m WHERE hostname = 'h7'";

/// A measurement `m` of `hosts` series, ten points each, every one applied
/// (nothing left staged).
fn fleet(hosts: usize) -> Influx {
    let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
    for chunk in (0..hosts).collect::<Vec<_>>().chunks(1_000) {
        let body: String = chunk
            .iter()
            .flat_map(|h| (0..10).map(move |i| format!("m,hostname=h{h} v={i} {}\n", 1 + i)))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
    }
    assert_eq!(ix.point_count("lms"), hosts * 10); // also drains staging
    ix
}

#[test]
fn a_one_host_statement_allocates_alike_over_100_and_10000_series() {
    let _turn = take_turn();
    let (small, large) = (fleet(100), fleet(10_000));
    // Warm up: the first statement of a thread pays for lazy set-up.
    assert_eq!(small.query("lms", STATEMENT).unwrap(), large.query("lms", STATEMENT).unwrap());
    let ((over_small, _), answer) = cost(&small, STATEMENT);
    assert_eq!(answer.series[0].values[0][1].as_f64(), Some(4.5));
    let ((over_large, _), _) = cost(&large, STATEMENT);
    println!("{STATEMENT}: {over_small} allocations over 100 series, {over_large} over 10,000");
    assert_eq!(over_small, over_large, "a one-host statement's cost grows with the measurement");
}

#[test]
fn sealed_blocks_hold_a_scrape_at_least_4x_below_raw() {
    let _turn = take_turn();
    let dir = TempDir::new("compress");
    let stats = sealed_scrape(&dir).storage_stats();
    let ratio = stats.compression_ratio();
    println!(
        "{} points in {} blocks: {} bytes sealed, {:.1}x below {POINT_BYTES} B a point",
        stats.sealed_points, stats.sealed_blocks, stats.sealed_bytes, ratio
    );
    assert!(ratio >= 4.0, "sealed blocks compress a scrape only {ratio:.2}x");
}

#[test]
fn summary_covered_aggregates_decode_no_block_and_answer_as_the_head() {
    let _turn = take_turn();
    let dir = TempDir::new("summaries");
    let sealed = sealed_scrape(&dir);
    let head = Influx::new(Clock::simulated(Timestamp::from_secs(60_000))).unwrap();
    load_busy(&head, SERIES, POINTS_PER_SERIES, STEP_NS);

    let stats = sealed.storage_stats();
    let block_bytes = stats.sealed_points / stats.sealed_blocks * POINT_BYTES;
    // Past the last point, so each series' last block is covered too.
    let end = (POINTS_PER_SERIES as i64 + 1) * STEP_NS;
    let statements = [
        "SELECT mean(busy), max(busy) FROM cpu".to_string(),
        format!(
            "SELECT mean(busy), max(busy) FROM cpu WHERE time >= 0 AND time < {end} \
             GROUP BY time(1h)"
        ),
    ];
    for q in &statements {
        // Warm up, and the answer: the summaries' must be the head's.
        let expected = head.query("lms", q).unwrap();
        assert!(!expected.series.is_empty(), "{q}: the head answers nothing");
        assert_eq!(sealed.query("lms", q).unwrap(), expected, "{q}");
        let ((calls, bytes), answer) = cost(&sealed, q);
        assert_eq!(answer, expected, "{q}");
        println!("{q}: {calls} allocations, {bytes} B; one decoded block is {block_bytes} B");
        assert!(
            bytes < block_bytes,
            "{q} allocated {bytes} B, one decoded block is {block_bytes} B"
        );
    }
}

#[test]
fn a_month_of_1h_windows_from_the_1h_tier_costs_a_tenth_of_the_raw_decode() {
    let _turn = take_turn();
    // 4 hosts sampled every 30 s for 30 days; the clock sits past the data.
    const HOSTS: usize = 4;
    const POINTS: usize = 86_400;
    const STEP: i64 = 30 * 1_000_000_000;
    let dir = TempDir::new("tiers");
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(2_700_000)),
        8,
        StorageConfig::new(&dir.0),
    )
    .unwrap();
    load_busy(&ix, HOSTS, POINTS, STEP);
    ix.flush_storage().unwrap();
    ix.enable_rollups(RollupPolicy::default()).unwrap();
    assert!(ix.rollup_counters().1 > 0, "the rollup pass wrote no tier rows");

    // Summaries off: the 1h raw blocks would otherwise answer the 1h
    // windows as cheaply as the tier does, and hide whether it served them.
    let db = ix.database("lms").unwrap();
    db.set_query_tuning(QueryTuning { use_summaries: false, parallel_scan: false });
    let end = (POINTS as i64 + 1) * STEP;
    let q = format!(
        "SELECT mean(busy), max(busy) FROM cpu WHERE time >= 0 AND time < {end} \
         GROUP BY time(1h), hostname"
    );
    let measure = |tiers: Vec<Tier>| {
        ix.set_query_tiers(Some(tiers));
        let warm = ix.query("lms", &q).unwrap();
        let ((_, bytes), answer) = cost(&ix, &q);
        assert_eq!(answer, warm);
        (bytes, answer)
    };
    let (raw_bytes, raw) = measure(vec![]);
    let (tier_bytes, tiered) = measure(vec![Tier::Hour]);
    assert_eq!(raw.series.len(), HOSTS);
    assert_eq!(tiered, raw, "the 1h tier answers otherwise than the raw points");
    println!("month of 1h windows: raw decode {raw_bytes} B, 1h tier {tier_bytes} B");
    assert!(
        tier_bytes * 10 <= raw_bytes,
        "the 1h tier allocated {tier_bytes} B against {raw_bytes} B for the raw decode"
    );
}
