//! The one way a client ships a batch or a signal: [`Sender`].
//!
//! Host agents, libusermetric, the stack's HPM batches and the scheduler's
//! job signals hand each request to a sender bound to a router over HTTP,
//! a closure (embedded stack, tests) or nothing (cost benchmarks). Over
//! HTTP it keeps the router's delivery contract on the first hop, with no
//! option, thread or sleep. Requests join one FIFO queue and go out in
//! order at this or a later [`Sender::send`] or [`Sender::flush`]. A `2xx`
//! pops the head. A `503` keeps it, and the queue waits until the answer's
//! `Retry-After` has passed on the owner's [`Clock`]. A transport error
//! keeps it for the next call. Any other status drops it as permanent.
//! Past [`QUEUE_CAP_BYTES`] the oldest request is evicted. [`SenderStats`]
//! counts each outcome.

use crate::{HttpClient, Request};
use lms_util::{Clock, Result, Timestamp};
use std::collections::VecDeque;
use std::net::ToSocketAddrs;
use std::time::Duration;

/// Bytes (target + body) an HTTP sender keeps queued before it evicts
/// the oldest request. On the stack's 40-thread node a standard host
/// agent ships 5-7 KB a sweep and, with pre-aggregation, 50-60 KB of 1m
/// rows a minute (measured), so the cap outlasts about 2 hours of router
/// outage at the stack's 60 s step (20 hours without pre-aggregation) and
/// about 25 minutes at a 1 s cadence.
pub const QUEUE_CAP_BYTES: usize = 8 << 20;

/// What became of the requests handed to a [`Sender`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Requests handed to the sender.
    pub batches: u64,
    /// Requests answered `2xx`, or taken by a closure or the discard sink.
    pub acked: u64,
    /// Attempts answered `503`; the request was kept.
    pub shed: u64,
    /// Attempts that failed in transport; the request was kept.
    pub transport_errors: u64,
    /// Requests answered with another status and dropped.
    pub rejected: u64,
    /// Requests evicted at the queue's cap.
    pub evicted: u64,
    /// Requests queued now.
    pub queued: u64,
}

enum Sink {
    Http(Box<Queue>),
    Func(Box<dyn FnMut(&str) + Send>),
    Null,
}

struct Queue {
    client: HttpClient,
    clock: Clock,
    /// Each request with its target + body bytes.
    pending: VecDeque<(Request, usize)>,
    bytes: usize,
    /// No attempt before this instant (the last `503`'s `Retry-After`).
    not_before: Timestamp,
}

/// A batch or signal sender (see the module docs).
pub struct Sender {
    sink: Sink,
    stats: SenderStats,
}

impl Sender {
    /// POSTs to the server at `addr` (connects lazily); `clock` times the
    /// `Retry-After` of a shed request.
    pub fn http<A: ToSocketAddrs>(addr: A, clock: Clock) -> Result<Self> {
        let queue = Queue {
            client: HttpClient::connect(addr)?,
            clock,
            pending: VecDeque::new(),
            bytes: 0,
            not_before: Timestamp::default(),
        };
        Ok(Sender { sink: Sink::Http(Box::new(queue)), stats: SenderStats::default() })
    }

    /// Hands each body to `f`; the target is not used.
    pub fn func(f: impl FnMut(&str) + Send + 'static) -> Self {
        Sender { sink: Sink::Func(Box::new(f)), stats: SenderStats::default() }
    }

    /// Discards every request.
    pub fn null() -> Self {
        Sender { sink: Sink::Null, stats: SenderStats::default() }
    }

    /// Ships `POST target` with `body` behind whatever is queued.
    pub fn send(&mut self, target: &str, body: &str) {
        self.stats.batches += 1;
        let Sink::Http(q) = &mut self.sink else {
            if let Sink::Func(f) = &mut self.sink {
                f(body);
            }
            self.stats.acked += 1;
            return;
        };
        let size = target.len() + body.len();
        while q.bytes + size > QUEUE_CAP_BYTES {
            let Some((_, old)) = q.pending.pop_front() else { break };
            q.bytes -= old;
            self.stats.evicted += 1;
        }
        let mut req = Request::new("POST", target);
        req.body = body.as_bytes().to_vec();
        q.pending.push_back((req, size));
        q.bytes += size;
        self.flush();
    }

    /// Sends what is queued, in order, until the queue is empty or the
    /// head is kept.
    pub fn flush(&mut self) {
        let (Sink::Http(q), stats) = (&mut self.sink, &mut self.stats) else { return };
        while let Some(&(ref req, size)) = q.pending.front() {
            if q.clock.now() < q.not_before {
                return;
            }
            match q.client.send(req) {
                Ok(r) if r.is_success() => stats.acked += 1,
                Ok(r) if r.status == 503 => {
                    stats.shed += 1;
                    let secs = r.header("retry-after").and_then(|v| v.trim().parse().ok());
                    q.not_before = q.clock.now().add(Duration::from_secs(secs.unwrap_or(1)));
                    return;
                }
                Ok(_) => stats.rejected += 1,
                Err(_) => {
                    stats.transport_errors += 1;
                    return;
                }
            }
            q.bytes -= size;
            q.pending.pop_front();
        }
    }

    /// The counters, with the current queue length.
    pub fn stats(&self) -> SenderStats {
        let queued = match &self.sink {
            Sink::Http(q) => q.pending.len() as u64,
            _ => 0,
        };
        SenderStats { queued, ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Response, Server};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// `(body, status)` of each request a scripted server answered.
    type Log = Arc<Mutex<Vec<(String, u16)>>>;

    /// A server answering each request with the next status of `script`
    /// (then 204).
    fn scripted(script: &[u16]) -> (Server, Log) {
        let log: Log = Arc::default();
        let (seen, script) = (log.clone(), Mutex::new(script.to_vec()));
        let server = Server::bind("127.0.0.1:0", 1, move |req| {
            let mut script = script.lock();
            let status = if script.is_empty() { 204 } else { script.remove(0) };
            seen.lock().push((req.body_str().into_owned(), status));
            match status {
                503 => Response::service_unavailable("shed", 2),
                s => Response::text(s, ""),
            }
        })
        .unwrap();
        (server, log)
    }

    #[test]
    fn a_shed_batch_is_resent_in_order_once_retry_after_passed() {
        let (server, log) = scripted(&[503]);
        let clock = Clock::simulated(Timestamp::from_secs(100));
        let mut s = Sender::http(server.addr(), clock.clone()).unwrap();
        s.send("/write?db=a", "one");
        s.send("/write?db=a", "two");
        // Retry-After: 2 has not passed: nothing more goes out.
        clock.advance(Duration::from_secs(1));
        s.flush();
        assert_eq!(log.lock().len(), 1);
        assert_eq!(s.stats().queued, 2);
        clock.advance(Duration::from_secs(1));
        s.flush();
        let expect = [("one".into(), 503), ("one".into(), 204), ("two".into(), 204)];
        assert_eq!(*log.lock(), expect);
        let stats = s.stats();
        assert_eq!((stats.batches, stats.acked, stats.shed, stats.queued), (2, 2, 1, 0));
        server.shutdown();
    }

    #[test]
    fn another_status_is_dropped_and_the_next_batch_goes_on() {
        let (server, log) = scripted(&[400]);
        let mut s = Sender::http(server.addr(), Clock::system()).unwrap();
        s.send("/write?db=a", "bad");
        s.send("/write?db=a", "good");
        assert_eq!(log.lock().len(), 2);
        let stats = s.stats();
        assert_eq!((stats.rejected, stats.acked, stats.queued), (1, 1, 0));
        server.shutdown();
    }

    #[test]
    fn a_transport_error_keeps_the_batch_and_the_cap_evicts_the_oldest() {
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let mut s = Sender::http(dead, Clock::system()).unwrap();
        let big = "x".repeat(QUEUE_CAP_BYTES / 3);
        for _ in 0..4 {
            s.send("/w", &big);
        }
        let stats = s.stats();
        assert_eq!((stats.transport_errors, stats.queued, stats.evicted), (4, 2, 2));
        assert_eq!(stats.acked, 0);
    }

    #[test]
    fn closure_and_null_sinks_take_every_batch() {
        let got: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = got.clone();
        let mut f = Sender::func(move |b| sink.lock().push(b.to_string()));
        f.send("/ignored", "a");
        f.send("/ignored", "b");
        assert_eq!(*got.lock(), ["a", "b"]);
        let mut n = Sender::null();
        n.send("/ignored", "c");
        for s in [f, n] {
            let stats = s.stats();
            assert_eq!(stats.batches, stats.acked);
        }
    }
}
