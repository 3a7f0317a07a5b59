//! A gate on what a statement costs that does not depend on how fast the
//! box is: heap allocations, counted.
//!
//! A job view's statements each name one host. A node answers one by
//! reading that host's series, found through the tag postings, so what it
//! costs must not grow with the rest of the measurement: the same
//! statement over a measurement of 100 series and one of 10,000 must
//! allocate the same number of times.

use lms_influx::Influx;
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

const STATEMENT: &str = "SELECT mean(v) FROM m WHERE hostname = 'h7'";

/// A measurement `m` of `hosts` series, ten points each, every one applied
/// (nothing left staged).
fn fleet(hosts: usize) -> Influx {
    let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000)));
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

fn allocations(ix: &Influx) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let answer = ix.query("lms", STATEMENT).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(answer.series[0].values[0][1].as_f64(), Some(4.5));
    after - before
}

#[test]
fn a_one_host_statement_allocates_alike_over_100_and_10000_series() {
    let (small, large) = (fleet(100), fleet(10_000));
    // Warm up: the first statement of a thread pays for lazy set-up.
    assert_eq!(small.query("lms", STATEMENT).unwrap(), large.query("lms", STATEMENT).unwrap());
    let (over_small, over_large) = (allocations(&small), allocations(&large));
    println!("{STATEMENT}: {over_small} allocations over 100 series, {over_large} over 10,000");
    assert_eq!(over_small, over_large, "a one-host statement's cost grows with the measurement");
}
