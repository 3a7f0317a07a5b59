//! The PUB side: accept subscribers, fan out with per-subscriber queues.
//!
//! Subscribers are accepted through [`lms_util::net::Acceptor`]. Each one's
//! connection thread reads its subscription frames and runs a writer thread
//! beside it that drains its queue onto the socket. The reader drops the
//! subscriber from the fan-out list when its connection ends, which ends
//! the writer. Dropping the publisher severs every connection, so each
//! subscriber sees the close and no thread outlives the publisher.

use crate::frame::{self, CTRL_SUB, CTRL_UNSUB, IO_BUFFER};
use crossbeam_channel::{bounded, Sender, TrySendError};
use lms_util::net::Acceptor;
use lms_util::Result;
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delivery statistics of a publisher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublisherStats {
    /// Messages passed to [`Publisher::publish`].
    pub published: u64,
    /// (message × subscriber) deliveries dropped at the high-water mark.
    pub dropped: u64,
}

struct SubscriberHandle {
    /// Topic prefixes this subscriber wants.
    topics: Arc<Mutex<Vec<String>>>,
    /// Encoded frames queued for the writer thread.
    queue: Sender<Arc<Vec<u8>>>,
}

struct Shared {
    subscribers: Mutex<Vec<SubscriberHandle>>,
    published: AtomicU64,
    dropped: AtomicU64,
    hwm: usize,
}

/// The publishing end of the queue. Cloneable via `Arc` if needed; all
/// methods take `&self`.
pub struct Publisher {
    shared: Arc<Shared>,
    acceptor: Acceptor,
}

impl Publisher {
    /// Binds with the default high-water mark (1024 frames per subscriber).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Self::bind_with_hwm(addr, 1024)
    }

    /// Binds with an explicit per-subscriber high-water mark.
    pub fn bind_with_hwm<A: ToSocketAddrs>(addr: A, hwm: usize) -> Result<Self> {
        let shared = Arc::new(Shared {
            subscribers: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            hwm: hwm.max(1),
        });
        let accept_shared = shared.clone();
        let acceptor = Acceptor::bind(addr, "lms-mq-acceptor", "lms-mq-reader", move |_, _| {
            let shared = accept_shared.clone();
            Some(Box::new(move |stream| serve_subscriber(stream, &shared)))
        })?;
        Ok(Publisher { shared, acceptor })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Publishes one message: fan out to matching subscribers, never block.
    /// The frame is encoded once, and only when some subscriber wants the
    /// topic: a message nobody wants is counted and allocates nothing.
    /// A topic that cannot be framed (NUL in it) is not sent; delivery
    /// failures are not errors, they are drops.
    pub fn publish(&self, topic: &str, payload: &[u8]) {
        self.shared.published.fetch_add(1, Ordering::Relaxed);
        let mut encoded: Option<Arc<Vec<u8>>> = None;
        for sub in self.shared.subscribers.lock().iter() {
            let wants = sub.topics.lock().iter().any(|t| topic.starts_with(t.as_str()));
            if !wants {
                continue;
            }
            let frame = match &encoded {
                Some(frame) => Arc::clone(frame),
                None => match frame::encode(topic, payload) {
                    Ok(frame) => Arc::clone(encoded.insert(Arc::new(frame))),
                    Err(_) => return, // NUL in topic: cannot happen for LMS topics
                },
            };
            match sub.queue.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of currently connected subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.shared.subscribers.lock().len()
    }

    /// Blocks until at least `n` subscribers are connected *and have at
    /// least one subscription registered*, or the timeout expires.
    pub fn wait_for_subscribers(&self, n: usize, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let subs = self.shared.subscribers.lock();
                let ready =
                    subs.iter().filter(|s| !s.topics.lock().is_empty()).count();
                if ready >= n {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(lms_util::Error::invalid(format!(
                    "timed out waiting for {n} subscribers"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Current delivery statistics.
    pub fn stats(&self) -> PublisherStats {
        PublisherStats {
            published: self.shared.published.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Publisher {
    fn drop(&mut self) {
        // Sever rather than let the writers drain: a subscriber that has
        // stopped reading would hold its writer, and the drop, forever.
        self.acceptor.sever();
    }
}

/// Serves one subscriber: a writer thread drains its queue onto the
/// socket while this thread applies its subscription frames, until the
/// connection ends.
fn serve_subscriber(stream: TcpStream, shared: &Shared) {
    let Ok(out) = stream.try_clone() else { return };
    let topics = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = bounded::<Arc<Vec<u8>>>(shared.hwm);
    std::thread::scope(|scope| {
        // Every frame already queued is written before the one flush, so a
        // burst costs a write per buffer, not per frame. A failed write
        // shuts the socket, which ends the reader below.
        let writer = std::thread::Builder::new().name("lms-mq-writer".into()).spawn_scoped(
            scope,
            move || {
                use std::io::Write as _;
                let mut w = std::io::BufWriter::with_capacity(IO_BUFFER, &out);
                while let Ok(first) = rx.recv() {
                    let written = std::iter::once(first)
                        .chain(rx.try_iter())
                        .try_for_each(|f| frame::write_all(&mut w, &f));
                    if written.is_err() || w.flush().is_err() {
                        let _ = out.shutdown(Shutdown::Both);
                        return;
                    }
                }
            },
        );
        if writer.is_err() {
            return;
        }
        shared.subscribers.lock().push(SubscriberHandle { topics: topics.clone(), queue: tx });
        let mut r = std::io::BufReader::new(stream);
        while let Ok(Some(msg)) = frame::read_frame(&mut r) {
            let pat = String::from_utf8_lossy(&msg.payload).into_owned();
            let mut t = topics.lock();
            match msg.topic.as_str() {
                CTRL_SUB if !t.contains(&pat) => t.push(pat),
                CTRL_UNSUB => t.retain(|p| *p != pat),
                _ => {} // subscribers don't send data
            }
        }
        // Dropping the handle's queue ends the writer.
        shared.subscribers.lock().retain(|s| !Arc::ptr_eq(&s.topics, &topics));
    });
}
