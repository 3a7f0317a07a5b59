//! A gate on the rollup pass that does not depend on how fast the box is:
//! heap allocations per tier row of one flush of the base database and
//! the rollup pass it feeds, the tier databases' seal included, counted
//! on the calling thread.
//!
//! A tier row is sealed straight from its window aggregates: no point, no
//! text, no parse, no staging. What a row may allocate is its share of
//! its stat columns (a name and a run each), of their sealed blocks and of
//! the flushes' segment files.

use lms_influx::{Influx, RollupPolicy, StorageConfig};
use lms_util::{Clock, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) a tier row may cost, its share of the
/// flush included. The parent of the change that added this gate made
/// 95.56 on this history (a point, a string per stat field, the line's
/// text and its parse); the bound is a quarter of that.
const MAX_ALLOCATIONS_PER_ROW: f64 = 23.9;

const SERIES: usize = 64;
const MINUTES: i64 = 120;
const MINUTE: i64 = 60_000_000_000;
/// Hour-aligned: 120 minutes fill two 1h windows.
const T0: i64 = 1_699_999_200 * 1_000_000_000;

/// `MINUTES` one-point minutes of every series, from minute `from`.
fn history(from: i64) -> String {
    let mut out = String::new();
    for minute in from..from + MINUTES {
        for s in 0..SERIES {
            let v = minute as usize * 7 + s;
            out.push_str(&format!(
                "cpu,cluster=c0,hostname=n{s:03} busy={v}.5,idle={}.25,iowait={}i,up=true {}\n",
                100 + v,
                v % 9,
                T0 + minute * MINUTE
            ));
        }
    }
    out
}

#[test]
fn tier_row_allocations_stay_bounded() {
    let dir = std::env::temp_dir().join(format!("lms-influx-rollup-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(1_700_100_000)),
        4,
        StorageConfig::new(&dir),
    )
    .unwrap();
    ix.enable_rollups(RollupPolicy {
        retention_raw: None,
        retention_1m: None,
        retention_1h: None,
    })
    .unwrap();
    let db = || ix.database("lms").unwrap();
    // The first pass creates the tier series and warms the reused buffers;
    // the second is the steady state.
    let mut rows = 0;
    for round in 0..2 {
        ix.write_lines("lms", &history(round * MINUTES), Default::default())
            .unwrap();
        let db = db();
        assert_eq!(db.head_point_count(), SERIES * MINUTES as usize * 4); // drains staging
        COUNTING.with(|on| on.set(round == 1));
        db.flush_storage().unwrap();
        rows = ix.rollup_pass("lms").unwrap();
        COUNTING.with(|on| on.set(false));
    }
    // 1m windows from the minute the watermark sat in, 1h windows from
    // its hour: 121 + 3 rows per series.
    assert_eq!(rows, SERIES as u64 * (MINUTES as u64 + 1 + 3));
    let per_row = ALLOCATIONS.with(Cell::get) as f64 / rows as f64;
    println!("{per_row:.2} allocations per tier row");
    assert!(
        per_row <= MAX_ALLOCATIONS_PER_ROW,
        "{per_row:.2} allocations per tier row (bound {MAX_ALLOCATIONS_PER_ROW})"
    );
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}
