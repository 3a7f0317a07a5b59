//! The PUB side: accept subscribers, fan out with per-subscriber queues.

use crate::frame::{self, CTRL_SUB, CTRL_UNSUB, IO_BUFFER};
use crossbeam_channel::{bounded, Sender, TrySendError};
use lms_util::Result;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Set when the connection died; reaped on next publish.
    dead: Arc<AtomicBool>,
}

struct Shared {
    subscribers: Mutex<Vec<SubscriberHandle>>,
    published: AtomicU64,
    dropped: AtomicU64,
    stop: AtomicBool,
    hwm: usize,
}

/// The publishing end of the queue. Cloneable via `Arc` if needed; all
/// methods take `&self`.
pub struct Publisher {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Publisher {
    /// Binds with the default high-water mark (1024 frames per subscriber).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Self::bind_with_hwm(addr, 1024)
    }

    /// Binds with an explicit per-subscriber high-water mark.
    pub fn bind_with_hwm<A: ToSocketAddrs>(addr: A, hwm: usize) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            subscribers: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            hwm: hwm.max(1),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lms-mq-acceptor".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn mq acceptor")
        };
        Ok(Publisher { addr: local, shared, acceptor: Some(acceptor) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publishes one message: fan out to matching subscribers, never block.
    /// The frame is encoded once, and only when some subscriber wants the
    /// topic: a message nobody wants is counted and allocates nothing.
    /// A topic that cannot be framed (NUL in it) is not sent; delivery
    /// failures are not errors, they are drops.
    pub fn publish(&self, topic: &str, payload: &[u8]) {
        self.shared.published.fetch_add(1, Ordering::Relaxed);
        let mut encoded: Option<Arc<Vec<u8>>> = None;
        let mut subs = self.shared.subscribers.lock();
        subs.retain(|s| !s.dead.load(Ordering::Acquire));
        for sub in subs.iter() {
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

    /// Number of currently connected subscribers (dead ones reaped lazily).
    pub fn subscriber_count(&self) -> usize {
        let mut subs = self.shared.subscribers.lock();
        subs.retain(|s| !s.dead.load(Ordering::Acquire));
        subs.len()
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
        self.shared.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Subscriber writer/reader threads exit when their sockets close
        // (queues disconnect as handles drop with the subscriber list).
        self.shared.subscribers.lock().clear();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let topics = Arc::new(Mutex::new(Vec::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Arc<Vec<u8>>>(shared.hwm);

        // Writer thread: drain the queue onto the socket. Every frame
        // already queued is written before the one flush, so a burst costs
        // a write per buffer, not per frame.
        {
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let dead = dead.clone();
            std::thread::Builder::new()
                .name("lms-mq-writer".into())
                .spawn(move || {
                    use std::io::Write as _;
                    let mut w = std::io::BufWriter::with_capacity(IO_BUFFER, stream);
                    while let Ok(first) = rx.recv() {
                        let written = std::iter::once(first)
                            .chain(rx.try_iter())
                            .try_for_each(|f| frame::write_all(&mut w, &f));
                        if written.is_err() || w.flush().is_err() {
                            dead.store(true, Ordering::Release);
                            return;
                        }
                    }
                })
                .expect("spawn mq writer");
        }

        // Reader thread: apply subscription control frames; detect close.
        {
            let topics = topics.clone();
            let dead = dead.clone();
            std::thread::Builder::new()
                .name("lms-mq-reader".into())
                .spawn(move || {
                    let mut r = std::io::BufReader::new(stream);
                    loop {
                        match frame::read_frame(&mut r) {
                            Ok(Some(msg)) if msg.topic == CTRL_SUB => {
                                let pat = String::from_utf8_lossy(&msg.payload).into_owned();
                                let mut t = topics.lock();
                                if !t.contains(&pat) {
                                    t.push(pat);
                                }
                            }
                            Ok(Some(msg)) if msg.topic == CTRL_UNSUB => {
                                let pat = String::from_utf8_lossy(&msg.payload).into_owned();
                                topics.lock().retain(|p| *p != pat);
                            }
                            Ok(Some(_)) => {} // subscribers don't send data
                            Ok(None) | Err(_) => {
                                dead.store(true, Ordering::Release);
                                return;
                            }
                        }
                    }
                })
                .expect("spawn mq reader");
        }

        shared.subscribers.lock().push(SubscriberHandle { topics, queue: tx, dead });
    }
}
