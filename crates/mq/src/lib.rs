//! # lms-mq
//!
//! A ZeroMQ-substitute **PUB/SUB message queue** over TCP.
//!
//! The paper's router publishes meta information (job starts, tags) and
//! metrics via ZeroMQ so that "other tools like aggregators and stream
//! analyzers" can attach. ZeroMQ is not in the offline dependency set, so
//! this crate reimplements the slice LMS uses, with the same semantics:
//!
//! - **topic prefix filtering** — a subscription to `"job."` receives
//!   `"job.start"` and `"job.end"`,
//! - **fire-and-forget fan-out** — publishing never blocks on a subscriber,
//! - **high-water mark** — a slow subscriber's queue fills up and further
//!   messages *for that subscriber* are dropped (counted, observable),
//! - **slow-joiner behaviour** — messages published before a subscription
//!   is registered are not delivered.
//!
//! Wire format per frame: `u32` big-endian total length, topic bytes, one
//! `0x00` separator, payload bytes. Subscriptions travel on the same socket
//! as frames with topic `\x01SUB`/`\x01UNSUB` and the pattern as payload.
//!
//! ```
//! use lms_mq::{Publisher, Subscriber};
//! use std::time::Duration;
//!
//! let publisher = Publisher::bind("127.0.0.1:0").unwrap();
//! let mut sub = Subscriber::connect(publisher.addr()).unwrap();
//! sub.subscribe("metrics.").unwrap();
//! publisher.wait_for_subscribers(1, Duration::from_secs(2)).unwrap();
//!
//! publisher.publish("metrics.cpu", b"cpu,hostname=h1 value=0.5");
//! let msg = sub.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
//! assert_eq!(msg.topic, "metrics.cpu");
//! ```

mod frame;
mod publisher;
mod subscriber;

pub use frame::Message;
pub use publisher::{Publisher, PublisherStats};
pub use subscriber::Subscriber;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn prefix_filtering() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("job.").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();

        p.publish("metrics.cpu", b"nope");
        p.publish("job.start", b"yes");
        let m = sub.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(m.topic, "job.start");
        assert_eq!(m.payload, b"yes");
        // The filtered message must never arrive.
        assert!(sub.recv_timeout(Duration::from_millis(200)).unwrap().is_none());
    }

    #[test]
    fn empty_subscription_receives_everything() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        p.publish("a", b"1");
        p.publish("b", b"2");
        assert_eq!(sub.recv_timeout(WAIT).unwrap().unwrap().topic, "a");
        assert_eq!(sub.recv_timeout(WAIT).unwrap().unwrap().topic, "b");
    }

    #[test]
    fn multiple_subscribers_fan_out() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut s1 = Subscriber::connect(p.addr()).unwrap();
        let mut s2 = Subscriber::connect(p.addr()).unwrap();
        s1.subscribe("x").unwrap();
        s2.subscribe("x").unwrap();
        p.wait_for_subscribers(2, WAIT).unwrap();
        p.publish("x", b"fan");
        assert_eq!(s1.recv_timeout(WAIT).unwrap().unwrap().payload, b"fan");
        assert_eq!(s2.recv_timeout(WAIT).unwrap().unwrap().payload, b"fan");
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("t").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        p.publish("t", b"1");
        assert!(sub.recv_timeout(WAIT).unwrap().is_some());
        sub.unsubscribe("t").unwrap();
        // Give the unsubscribe time to land, then publish.
        std::thread::sleep(Duration::from_millis(100));
        p.publish("t", b"2");
        assert!(sub.recv_timeout(Duration::from_millis(200)).unwrap().is_none());
    }

    #[test]
    fn slow_joiner_misses_early_messages() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        p.publish("t", b"early");
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("t").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        p.publish("t", b"late");
        let m = sub.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(m.payload, b"late");
    }

    #[test]
    fn disconnected_subscriber_is_dropped() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("t").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        drop(sub);
        // Publishing to a dead subscriber must not error or wedge; the
        // publisher eventually reaps it.
        for _ in 0..50 {
            p.publish("t", b"x");
            std::thread::sleep(Duration::from_millis(10));
            if p.subscriber_count() == 0 {
                return;
            }
        }
        panic!("dead subscriber never reaped");
    }

    #[test]
    fn dropping_the_publisher_closes_every_subscriber() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut idle = Subscriber::connect(p.addr()).unwrap();
        idle.subscribe("quiet").unwrap();
        let mut stalled = Subscriber::connect(p.addr()).unwrap();
        stalled.subscribe("t").unwrap();
        p.wait_for_subscribers(2, WAIT).unwrap();
        // 16 MiB to a subscriber that is not reading: more than the socket
        // buffers hold, so its writer is blocked mid-write when the
        // publisher drops.
        let filler = vec![b'x'; 64 * 1024];
        for _ in 0..256 {
            p.publish("t", &filler);
        }
        drop(p);
        let closed = |sub: &mut Subscriber| {
            (0..1000).find_map(|_| sub.recv_timeout(Duration::from_millis(10)).err())
        };
        let err = closed(&mut idle).expect("the idle subscriber sees the close");
        assert!(err.to_string().contains("publisher closed the connection"), "{err}");
        assert!(closed(&mut stalled).is_some(), "the stalled subscriber sees the close");
    }

    #[test]
    fn stats_count_published_and_dropped() {
        let p = Publisher::bind_with_hwm("127.0.0.1:0", 4).unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("t").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        // Stall the subscriber (never recv) and flood past the HWM.
        for i in 0..1000 {
            p.publish("t", format!("{i}").as_bytes());
        }
        let stats = p.stats();
        assert_eq!(stats.published, 1000);
        assert!(stats.dropped > 0, "HWM of 4 must drop under a 1000-message flood");
        // The subscriber still receives *some* messages.
        assert!(sub.recv_timeout(WAIT).unwrap().is_some());
    }

    #[test]
    fn burst_published_while_the_writer_is_blocked_arrives_complete_and_in_order() {
        const FRAMES: usize = 10_000;
        let p = Publisher::bind_with_hwm("127.0.0.1:0", FRAMES).unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("t").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        // ≈ 20 MiB: more than the socket buffers hold, so with the
        // subscriber not reading yet the writer blocks part-way through
        // and the rest of the burst waits in its queue.
        let filler = "x".repeat(2048);
        for i in 0..FRAMES {
            p.publish("t", format!("{i:05}{filler}").as_bytes());
        }
        assert_eq!(p.stats(), PublisherStats { published: FRAMES as u64, dropped: 0 });
        for i in 0..FRAMES {
            let m = sub.recv_timeout(WAIT).unwrap().expect("every frame of the burst");
            assert_eq!(m.topic, "t");
            assert_eq!(m.payload.len(), 5 + filler.len());
            assert_eq!(&m.payload[..5], format!("{i:05}").as_bytes(), "frame {i} out of order");
        }
        assert!(sub.recv_timeout(Duration::from_millis(200)).unwrap().is_none());
    }

    #[test]
    fn binary_payloads_survive() {
        let p = Publisher::bind("127.0.0.1:0").unwrap();
        let mut sub = Subscriber::connect(p.addr()).unwrap();
        sub.subscribe("bin").unwrap();
        p.wait_for_subscribers(1, WAIT).unwrap();
        let payload: Vec<u8> = (0..=255).collect();
        p.publish("bin", &payload);
        assert_eq!(sub.recv_timeout(WAIT).unwrap().unwrap().payload, payload);
    }
}
