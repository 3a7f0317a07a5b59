//! A gate on the router's write path that does not depend on how fast the
//! box is: heap allocations per line of one `/write`, counted.
//!
//! The request is the per-user, published shape of an instrumented
//! application: every line comes from a host that runs a job, so each one
//! is enriched and offered to the queue, and its user reads it through
//! their view. The router writes each line once — job tags spliced into
//! the received bytes — and hands that one text to every destination, so
//! what a line may allocate is its parse, its share of the growing batch
//! buffer and, for the quarter of lines a subscriber wants, one frame.
//! Only the calling thread is counted: the forwarder's workers and the
//! queue's writer run on their own. The node then holds each point once:
//! in `lms`, and in no `user_*` database.

use lms_influx::{Influx, InfluxServer};
use lms_mq::{Publisher, Subscriber};
use lms_router::{JobSignal, Router, RouterConfig};
use lms_util::{Clock, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

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

/// Allocations (and reallocations) `handle_write` may make per line. The
/// parent of the change that added this gate made 24.9 on this request.
const MAX_ALLOCATIONS_PER_LINE: f64 = 4.0;

const METRICS: [&str; 4] = ["app_pressure", "app_temperature", "app_energy", "app_step"];

/// 1,000 lines from four ranks on four hosts: per 100 lines, 24 loop
/// iterations of four metrics and four string events.
fn body(round: i64) -> String {
    let mut out = String::new();
    for i in 0..1_000i64 {
        let host = i % 4;
        let ts = 1_000_000_000_000 + round * 1_000_000 + i;
        if i % 25 == 24 {
            out.push_str(&format!(
                "app_event,hostname=h{host},rank={host} text=\"iteration {i}, phase=2\" {ts}\n"
            ));
        } else {
            let metric = METRICS[(i % 25 % 4) as usize];
            out.push_str(&format!("{metric},hostname=h{host},rank={host} value={i}.25 {ts}\n"));
        }
    }
    out
}

#[test]
fn enriched_published_per_user_write_allocations_per_line_stay_bounded() {
    let clock = Clock::simulated(Timestamp::from_secs(5_000));
    let influx = Influx::new(clock.clone()).unwrap();
    let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let publisher = Publisher::bind("127.0.0.1:0").unwrap();
    let mut subscriber = Subscriber::connect(publisher.addr()).unwrap();
    subscriber.subscribe("metrics.app_pressure").unwrap();
    publisher.wait_for_subscribers(1, Duration::from_secs(5)).unwrap();
    let config = RouterConfig { per_user: true, ..Default::default() };
    let router = Router::new(server.addr(), config, clock, Some(publisher)).unwrap();
    router.handle_job_start(JobSignal {
        job_id: "42".into(),
        user: "alice".into(),
        hosts: (0..4).map(|h| format!("h{h}")).collect(),
        extra_tags: vec![("queue".into(), "work q".into())],
    });

    // The first request pays for what a router sets up once; the second
    // is the steady state.
    for round in 0..2 {
        let body = body(round);
        ALLOCATIONS.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        let outcome = router.handle_write(None, &body);
        COUNTING.with(|on| on.set(false));
        let allocations = ALLOCATIONS.with(Cell::get);
        assert_eq!((outcome.accepted, outcome.rejected), (1_000, 0));
        assert!(outcome.acked);
        let per_line = allocations as f64 / 1_000.0;
        println!("round {round}: {allocations} allocations for 1000 lines = {per_line:.2}");
        if round == 1 {
            assert!(
                per_line <= MAX_ALLOCATIONS_PER_LINE,
                "{per_line:.2} allocations per enriched line"
            );
        }
        assert!(router.flush(Duration::from_secs(10)));
    }
    assert_eq!(router.stats().lines_enriched, 2_000);
    let names = influx.database_names();
    let held: usize = names.iter().map(|db| influx.point_count(db)).sum();
    assert_eq!(held, influx.point_count("lms"), "points held outside lms: {names:?}");
    assert!(names.iter().all(|db| !db.starts_with("user_")), "{names:?}");
    drop(subscriber);
    server.shutdown();
}
