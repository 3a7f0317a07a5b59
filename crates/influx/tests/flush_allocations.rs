//! A gate on the storage worker's cost per sealed block that does not
//! depend on how fast the box is: heap allocations, counted.
//!
//! A flush of a many-series fleet seals about one value per block, so what
//! it costs is what one block costs. Sealing must allocate for the block
//! (its compressed bytes, its `Arc`) and, amortised, for the vectors that
//! collect blocks; handing the block to the segment writer must not
//! allocate at all — the entry shares the series identity, the field name
//! and the block with the column that holds them.

use lms_influx::{Influx, StorageConfig};
use lms_util::{Clock, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) a flush may make per block it seals.
/// The parent of the change that added this gate made 31.
const MAX_ALLOCATIONS_PER_BLOCK: f64 = 10.0;

#[test]
fn flush_allocations_per_sealed_block_stay_bounded() {
    const SERIES: usize = 2_000;
    const FIELDS: usize = 5;
    let dir = std::env::temp_dir().join(format!("lms-influx-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1000)), 8, StorageConfig::new(&dir))
        .unwrap();
    // Two rounds: the second flush is the steady state (every column's
    // vectors exist), the first pays for creating them — both are gated.
    for round in 0..2 {
        let body: String = (0..SERIES)
            .map(|s| {
                format!(
                    "cpu,hostname=node{s:04},jobid=42,user=alice \
                     user=1.5,system=0.5,idle=98,iowait=0.1,steal=0 {}\n",
                    1_000_000_000 + round
                )
            })
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        let db = ix.database("lms").unwrap();
        assert_eq!(db.head_point_count(), SERIES * FIELDS); // also drains staging
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sealed = db.flush_storage().unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(sealed, SERIES * FIELDS, "one block per column");
        let per_block = allocations as f64 / sealed as f64;
        println!("round {round}: {allocations} allocations for {sealed} blocks = {per_block:.2}");
        assert!(
            per_block <= MAX_ALLOCATIONS_PER_BLOCK,
            "round {round}: {per_block:.2} allocations per sealed block"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
