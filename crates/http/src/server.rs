//! A thread-per-connection HTTP server.
//!
//! LMS servers hold many long-lived keep-alive connections (every host
//! agent, HPM collector, signaler and forwarder keeps one open), so a
//! fixed worker pool would starve new connections once all workers sit in
//! keep-alive loops. Each accepted connection therefore gets its own
//! thread; `max_connections` bounds the total. Connections are accepted,
//! tracked and stopped by [`lms_util::net::Acceptor`]: an idle connection
//! thread blocks in `read` with no timeout, and shutdown shuts every read
//! side, so idle threads end at once while answers in flight are still
//! written, and shutdown returns only when every connection thread has.
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
use lms_util::net::Acceptor;
use lms_util::{Error, Result};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    /// byte has arrived, and for each write of its answer, so a slow or
    /// stalled client cannot pin a connection thread, or the server's
    /// shutdown, indefinitely.
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
/// stops the acceptor and joins every connection thread.
pub struct Server {
    acceptor: Acceptor,
    accepted: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
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
        let accepted = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let handler: Handler = Arc::new(handler);
        let cap = config.max_connections.max(MIN_CONNECTION_CAP);
        let (conn_accepted, conn_shed) = (accepted.clone(), shed.clone());
        let acceptor =
            Acceptor::bind(addr, "lms-http-acceptor", "lms-http-conn", move |stream, live| {
                if live >= cap {
                    // Over capacity: shed with a fast 503 so the client knows
                    // to back off. Bounded write timeout — a shed response must
                    // never block the acceptor.
                    conn_shed.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = Response::service_unavailable(
                        "server at connection capacity",
                        config.retry_after_secs,
                    )
                    .write_to(&mut BufWriter::new(stream));
                    return None;
                }
                conn_accepted.fetch_add(1, Ordering::Relaxed);
                let (handler, config) = (handler.clone(), config.clone());
                Some(Box::new(move |stream| serve_connection(&stream, &handler, &config)))
            })?;
        Ok(Server { acceptor, accepted, shed })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Number of open connections.
    pub fn active_connections(&self) -> usize {
        self.acceptor.live()
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

    /// Stops accepting, ends every idle connection and waits for requests
    /// in flight to be answered.
    pub fn shutdown(mut self) {
        self.acceptor.stop();
    }
}

fn serve_connection(stream: &TcpStream, handler: &Handler, config: &ServerConfig) {
    use std::io::BufRead as _;
    // An idle keep-alive connection blocks in `read` with no timeout: the
    // server's stop shuts the read side, which ends the wait. Once a
    // request starts arriving the request deadline applies — a slow client
    // gets at most that long per request, and per write of the answer,
    // before the connection is dropped.
    let busy = Some(config.request_deadline.max(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(busy);
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        let _ = stream.set_read_timeout(None);
        match reader.fill_buf() {
            Ok([]) | Err(_) => return, // closed, or the server stopped
            Ok(_) => {}
        }
        let _ = stream.set_read_timeout(busy);
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
    fn shutdown_leaves_no_connection_holding_the_handler() {
        use std::io::Write;
        // One idle keep-alive client and one that sent half a request: the
        // latter waits out the 30-s request deadline unless shutdown ends
        // its read.
        let token = Arc::new(());
        let held = token.clone();
        let server = Server::bind("127.0.0.1:0", 16, move |_| {
            let _held = &held;
            Response::no_content()
        })
        .unwrap();
        let mut idle = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(idle.get("/warm").unwrap().status, 204);
        // A whole exchange first, so its thread is serving when the half
        // request arrives.
        let mut half = TcpStream::connect(server.addr()).unwrap();
        half.set_nodelay(true).unwrap();
        half.write_all(b"GET /warm HTTP/1.1\r\n\r\n").unwrap();
        let warm = Response::read_from(&mut BufReader::new(&half)).unwrap();
        assert_eq!(warm.status, 204);
        half.write_all(b"POST /write HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345").unwrap();
        // Time for its thread to get from the answer into reading the body.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(server.active_connections(), 2);
        server.shutdown();
        assert_eq!(Arc::strong_count(&token), 1, "a connection thread outlived shutdown");
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
