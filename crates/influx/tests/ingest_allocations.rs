//! A gate on the node's write path that does not depend on how fast the
//! box is: heap allocations per router-forwarded line through
//! `Influx::write_lines`, the drain into the columns included, counted.
//!
//! A forwarded line is in the router's canonical form: tag keys strictly
//! ascending, a nanosecond timestamp. Its key is read in place, its values
//! are staged into recycled buffers and appended straight to their
//! columns, so what a line may allocate is its parse, its share of the
//! batch's WAL record and of its columns' growth. Only the calling thread
//! is counted.

use lms_influx::{Influx, StorageConfig};
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

/// Allocations (and reallocations) a forwarded five-field line may cost.
/// The parent of the change that added this gate made 9.37 on this body;
/// the bound is a third of that.
const MAX_ALLOCATIONS_PER_LINE: f64 = 3.1;

const HOSTS: usize = 64;
const MEASUREMENTS: [&str; 8] = ["cpu", "mem", "disk", "net", "ib", "lustre", "flops", "membw"];
const WARM_ROUNDS: i64 = 2;
const ROUNDS: i64 = 60;

/// One sweep of the fleet as the router forwards it: three of four hosts
/// run a job, so their lines carry the job's tags spliced in key order.
fn body(round: i64) -> String {
    let mut out = String::new();
    for host in 0..HOSTS {
        let job = match host % 4 {
            3 => String::new(),
            _ => format!(",jobid={},user=u{}", host / 4, host % 3),
        };
        for (m, measurement) in MEASUREMENTS.iter().enumerate() {
            let v = round as usize * 7 + host + m;
            out.push_str(&format!(
                "{measurement},cluster=c0,hostname=n{host:03}{job} \
                 busy={v}.5,idle={}.25,iowait={}i,steal=0,total={v}e3 {}\n",
                100 + v,
                v % 9,
                1_700_000_000_000_000_000 + round * 1_000_000_000
            ));
        }
    }
    out
}

#[test]
fn forwarded_line_allocations_stay_bounded() {
    let dir = std::env::temp_dir().join(format!("lms-influx-ingest-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1000)), 4, StorageConfig::new(&dir))
        .unwrap();
    let bodies: Vec<String> = (0..WARM_ROUNDS + ROUNDS).map(body).collect();
    // The first rounds create the series and warm the reused buffers.
    for text in &bodies[..WARM_ROUNDS as usize] {
        ix.write_lines("lms", text, Default::default()).unwrap();
    }
    let db = ix.database("lms").unwrap();
    assert_eq!(db.head_point_count(), WARM_ROUNDS as usize * HOSTS * MEASUREMENTS.len() * 5);

    COUNTING.with(|on| on.set(true));
    for text in &bodies[WARM_ROUNDS as usize..] {
        ix.write_lines("lms", text, Default::default()).unwrap();
    }
    let staged = ix.storage_stats().shard_buffer_depth as usize;
    let held = db.head_point_count(); // drains what is still staged
    COUNTING.with(|on| on.set(false));

    let lines = ROUNDS as usize * HOSTS * MEASUREMENTS.len();
    assert_eq!(held, (bodies.len()) * HOSTS * MEASUREMENTS.len() * 5);
    assert!(staged < lines * 5 / 2, "the writes drained most of what they staged: {staged} left");
    let per_line = ALLOCATIONS.with(Cell::get) as f64 / lines as f64;
    println!("{per_line:.2} allocations per forwarded line");
    assert!(
        per_line <= MAX_ALLOCATIONS_PER_LINE,
        "{per_line:.2} allocations per forwarded line (bound {MAX_ALLOCATIONS_PER_LINE})"
    );
    drop(db);
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}
