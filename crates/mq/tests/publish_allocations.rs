//! A message no subscriber wants costs the publisher a count, not a frame:
//! heap allocations on the publishing thread, counted.

use lms_mq::{Publisher, Subscriber};
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

#[test]
fn publish_to_a_topic_nobody_wants_allocates_nothing_and_is_counted() {
    const WAIT: Duration = Duration::from_secs(5);
    let publisher = Publisher::bind("127.0.0.1:0").unwrap();
    let mut sub = Subscriber::connect(publisher.addr()).unwrap();
    sub.subscribe("metrics.app_pressure").unwrap();
    publisher.wait_for_subscribers(1, WAIT).unwrap();

    let payload = b"app_energy,hostname=h1,jobid=42,user=alice value=-45000.5 1";
    COUNTING.with(|on| on.set(true));
    for _ in 0..1_000 {
        publisher.publish("metrics.app_energy", payload);
    }
    COUNTING.with(|on| on.set(false));
    assert_eq!(ALLOCATIONS.with(Cell::get), 0);
    assert_eq!(publisher.stats().published, 1_000);
    assert_eq!(publisher.stats().dropped, 0);

    // The wanted topic still gets through, and only it.
    publisher.publish("metrics.app_pressure", b"app_pressure value=1 2");
    let m = sub.recv_timeout(WAIT).unwrap().unwrap();
    assert_eq!(m.topic, "metrics.app_pressure");
    assert_eq!(m.payload, b"app_pressure value=1 2");
    assert!(sub.recv_timeout(Duration::from_millis(200)).unwrap().is_none());
}
