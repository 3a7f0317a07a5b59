//! A thread-per-connection HTTP server.
//!
//! LMS servers hold many long-lived keep-alive connections (every host
//! agent, HPM collector, signaler and forwarder keeps one open), so a
//! fixed worker pool would starve new connections once all workers sit in
//! keep-alive loops. Each accepted connection therefore gets its own
//! thread; `max_connections` bounds the total. Connection threads poll the
//! stop flag every 200 ms while idle, so shutdown completes promptly.
//! Designed for the trusted-cluster-network setting of the paper: no TLS.
//!
//! Thread-per-connection is priced per *connection*, so it holds as long
//! as peers keep theirs: a thread spawn and a TCP handshake cost more than
//! a small request does, and a peer that dials per request pays both every
//! time. The stack's own peers therefore dial once — agents and signalers
//! hold one client each, and the router keeps a small set of connections
//! per database node that its forwarders, spool drainer and query path all
//! share — which leaves each server a few dozen long-lived threads that
//! sleep in `read` between requests. [`Server::accepted_connections`]
//! counts the dials, so a per-request dialer shows up as a number.

use crate::message::{Request, Response};
use lms_util::{Error, Result};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The request handler type: pure function from request to response.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// The floor under every server's concurrent-connection bound: a
/// configured `max_connections` below it is raised to it, because the
/// stack's own internal clients — the router's kept node connections,
/// signalers, health probes — must always fit. Peers that keep
/// connections open size themselves against this number (the router's
/// `MAX_IDLE_CLIENTS`).
pub const MIN_CONNECTION_CAP: usize = 16;

/// Admission and resource limits of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection bound, raised to [`MIN_CONNECTION_CAP`] when
    /// below it. Connections over the limit are answered
    /// `503 + Retry-After` and closed immediately instead of getting a
    /// thread.
    pub max_connections: usize,
    /// Per-request body cap; a larger declared `Content-Length` is
    /// answered `413 Payload Too Large`.
    pub max_body_bytes: usize,
    /// Deadline for reading one request (headers + body) once its first
    /// byte has arrived, so a slow or stalled client cannot pin a
    /// connection thread indefinitely.
    pub request_deadline: Duration,
    /// `Retry-After` hint (seconds) on shed connections.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_body_bytes: 64 * 1024 * 1024,
            request_deadline: Duration::from_secs(30),
            retry_after_secs: 1,
        }
    }
}

impl ServerConfig {
    /// Config with the given connection bound and defaults elsewhere.
    pub fn with_max_connections(max_connections: usize) -> Self {
        ServerConfig { max_connections, ..ServerConfig::default() }
    }
}

/// A running HTTP server. Dropping it (or calling [`shutdown`](Self::shutdown))
/// stops the acceptor and waits for connection threads to drain.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accepted: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with default
    /// limits except `max_connections`. See [`Server::bind_with`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        max_connections: usize,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> Result<Self> {
        Self::bind_with(addr, ServerConfig::with_max_connections(max_connections), handler)
    }

    /// Binds to `addr` with explicit admission limits. Connections over
    /// `max_connections` get a fast `503 + Retry-After` on the accepting
    /// thread (no per-connection thread is spawned for them), bounding
    /// both thread count and memory under a connect flood.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accepted = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let handler: Handler = Arc::new(handler);
        let cap = config.max_connections.max(MIN_CONNECTION_CAP);
        let retry_after = config.retry_after_secs;

        let acceptor = {
            let stop = stop.clone();
            let active = active.clone();
            let accepted = accepted.clone();
            let shed = shed.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("lms-http-acceptor".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        if active.load(Ordering::Acquire) >= cap {
                            // Over capacity: shed with a fast 503 so the
                            // client knows to back off. Bounded write
                            // timeout — a shed response must never block
                            // the acceptor.
                            shed.fetch_add(1, Ordering::Relaxed);
                            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                            let mut w = BufWriter::new(stream);
                            let _ = Response::service_unavailable(
                                "server at connection capacity",
                                retry_after,
                            )
                            .write_to(&mut w);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        accepted.fetch_add(1, Ordering::Relaxed);
                        active.fetch_add(1, Ordering::AcqRel);
                        let handler = handler.clone();
                        let stop = stop.clone();
                        let conn_active = active.clone();
                        let config = config.clone();
                        let spawned = std::thread::Builder::new()
                            .name("lms-http-conn".into())
                            .spawn(move || {
                                serve_connection(stream, &handler, &stop, &config);
                                conn_active.fetch_sub(1, Ordering::AcqRel);
                            });
                        if spawned.is_err() {
                            active.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                })
                .map_err(Error::from)?
        };

        Ok(Server { addr: local, stop, active, accepted, shed, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of open connections.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Number of connections admitted (given a thread) since the server
    /// started — one per dial, however many requests each then carried.
    pub fn accepted_connections(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Number of connections refused with `503` because the server was at
    /// its connection limit.
    pub fn shed_connections(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Stops accepting and waits (bounded) for connections to drain.
    pub fn shutdown(mut self) {
        self.stop_internal();
    }

    fn stop_internal(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Connection threads notice the stop flag within their 200 ms idle
        // poll; wait up to ~2 s for them (in-flight requests finish first).
        for _ in 0..100 {
            if self.active.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

fn serve_connection(stream: TcpStream, handler: &Handler, stop: &AtomicBool, config: &ServerConfig) {
    use std::io::BufRead as _;
    // Short idle timeout so keep-alive connections re-check the stop flag
    // periodically. Once a request starts arriving we switch to the request
    // deadline — a slow client gets at most that long per request before
    // the read times out and the connection is dropped.
    let idle = Some(std::time::Duration::from_millis(200));
    let busy = Some(config.request_deadline.max(Duration::from_millis(100)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Idle wait: peek without consuming until data arrives or EOF.
        let _ = reader.get_ref().set_read_timeout(idle);
        match reader.fill_buf() {
            Ok([]) => return, // clean close
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        let _ = reader.get_ref().set_read_timeout(busy);
        match Request::read_from_limited(&mut reader, config.max_body_bytes) {
            Ok(Some(req)) => {
                let close = req.wants_close();
                let resp = handler(req);
                if resp.write_to(&mut writer).is_err() || close {
                    return;
                }
            }
            Ok(None) => return,
            // An oversize body is rejected before it is read, so the
            // request bytes are still in flight — answer and close.
            Err(Error::Remote { status: 413, message }) => {
                let _ = Response::text(413, message).write_to(&mut writer);
                return;
            }
            Err(_) => {
                let _ = Response::bad_request("malformed request").write_to(&mut writer);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    #[test]
    fn serves_and_shuts_down() {
        let server = Server::bind("127.0.0.1:0", 16, |req| {
            Response::text(200, format!("{} {}", req.method, req.path))
        })
        .unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        let r = c.get("/x").unwrap();
        assert_eq!(r.body_str(), "GET /x");
        server.shutdown();
    }

    #[test]
    fn keep_alive_across_requests() {
        let server =
            Server::bind("127.0.0.1:0", 16, |req| Response::text(200, req.path)).unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            let r = c.get(&format!("/req{i}")).unwrap();
            assert_eq!(r.body_str(), format!("/req{i}"));
        }
        assert_eq!(server.accepted_connections(), 1, "ten requests, one dial");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = Server::bind("127.0.0.1:0", 32, |req| {
            Response::text(200, req.body_str().into_owned())
        })
        .unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    for i in 0..25 {
                        let body = format!("t{t}-{i}");
                        let r = c.post("/echo", body.as_bytes()).unwrap();
                        assert_eq!(r.body_str(), body);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn more_keepalive_connections_than_any_pool_size() {
        // The regression this design exists for: many idle keep-alive
        // clients must not starve a newcomer.
        let server = Server::bind("127.0.0.1:0", 64, |_| Response::no_content()).unwrap();
        let addr = server.addr();
        let mut idle_clients: Vec<HttpClient> = (0..10)
            .map(|_| {
                let mut c = HttpClient::connect(addr).unwrap();
                assert_eq!(c.get("/warm").unwrap().status, 204);
                c // keeps its connection open
            })
            .collect();
        let mut newcomer = HttpClient::connect(addr).unwrap();
        assert_eq!(newcomer.get("/new").unwrap().status, 204);
        // Idle clients still work afterwards.
        assert_eq!(idle_clients[0].get("/again").unwrap().status, 204);
        server.shutdown();
    }

    #[test]
    fn over_capacity_connection_gets_503_with_retry_after() {
        use std::io::Read;
        // The cap floor is 16: fill it with idle keep-alive clients, then
        // the 17th connect must be shed with 503 + Retry-After instead of
        // being silently dropped (the pre-fix behavior) or given a thread.
        let server = Server::bind("127.0.0.1:0", 1, |_| Response::no_content()).unwrap();
        let addr = server.addr();
        let _parked: Vec<HttpClient> = (0..MIN_CONNECTION_CAP)
            .map(|_| {
                let mut c = HttpClient::connect(addr).unwrap();
                assert_eq!(c.get("/warm").unwrap().status, 204);
                c
            })
            .collect();
        // Wait until all 16 connection threads are registered.
        for _ in 0..100 {
            if server.active_connections() >= MIN_CONNECTION_CAP {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut s = TcpStream::connect(addr).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
        assert!(buf.to_ascii_lowercase().contains("retry-after:"), "{buf}");
        assert!(server.shed_connections() >= 1);
        assert_eq!(server.accepted_connections(), MIN_CONNECTION_CAP as u64, "shed ≠ accepted");
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413() {
        use std::io::{Read, Write};
        let config = ServerConfig {
            max_connections: 16,
            max_body_bytes: 32,
            ..ServerConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config, |_| Response::no_content()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"POST /write HTTP/1.1\r\ncontent-length: 1000\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
        server.shutdown();
    }

    #[test]
    fn slow_client_cannot_pin_a_connection_thread() {
        use std::io::{Read, Write};
        let config = ServerConfig {
            max_connections: 16,
            request_deadline: std::time::Duration::from_millis(150),
            ..ServerConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config, |_| Response::no_content()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Send a request head that promises a body, then stall.
        s.write_all(b"POST /write HTTP/1.1\r\ncontent-length: 10\r\n\r\n").unwrap();
        let start = std::time::Instant::now();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf); // server must drop us, not wait forever
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "connection held for {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        use std::io::{Read, Write};
        let server = Server::bind("127.0.0.1:0", 16, |_| Response::no_content()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        server.shutdown();
    }
}
