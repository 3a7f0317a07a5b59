//! A persistent-connection HTTP client.
//!
//! Holds one TCP connection to a fixed peer and reuses it across requests
//! (keep-alive); reconnects transparently once if the connection went away
//! between requests. All LMS senders (host agents, the router's forwarder,
//! libusermetric) push batches through this client.
//!
//! An exchange is two halves — [`HttpClient::start`] writes the request,
//! [`HttpClient::finish`] reads the answer — so a caller holding clients
//! to several peers can write to all of them before it waits for any
//! (the router's scatter); [`HttpClient::send`] is the two back to back.

use crate::message::{Request, Response};
use lms_util::{Error, Result};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// HTTP client bound to one server address.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<Conn>,
    timeout: Duration,
    /// A request is written and its answer unread.
    awaiting: bool,
    /// The exchange in progress has used its one re-dial.
    redialed: bool,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl HttpClient {
    /// Resolves `addr` and creates a client (connects lazily).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::config("address resolved to nothing"))?;
        Ok(HttpClient {
            addr,
            conn: None,
            timeout: Duration::from_secs(10),
            awaiting: false,
            redialed: false,
        })
    }

    /// Sets the per-request I/O timeout (default 10 s).
    pub fn set_timeout(&mut self, t: Duration) {
        self.timeout = t;
        self.conn = None; // apply on next connect
        self.awaiting = false;
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            let reader = BufReader::new(stream.try_clone()?);
            let writer = BufWriter::new(stream);
            self.conn = Some(Conn { reader, writer });
        }
        Ok(self.conn.as_mut().expect("just set"))
    }

    fn write_request(&mut self, req: &Request) -> Result<()> {
        let conn = self.ensure_conn()?;
        req.write_to(&mut conn.writer)?;
        conn.writer.flush()?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response> {
        Response::read_from(&mut self.ensure_conn()?.reader)
    }

    /// Writes `req` without waiting for its answer; [`finish`](Self::finish)
    /// reads it. Re-dials once when the kept connection turns out dead at
    /// the write. A connection still owing the answer to an earlier,
    /// abandoned `start` is closed first, so that answer can never be
    /// taken for this request's.
    pub fn start(&mut self, req: &Request) -> Result<()> {
        if std::mem::take(&mut self.awaiting) {
            self.conn = None;
        }
        self.redialed = false;
        let mut written = self.write_request(req);
        if matches!(written, Err(Error::Io(_) | Error::Protocol(_))) {
            self.conn = None;
            self.redialed = true;
            written = self.write_request(req);
        }
        match written {
            Ok(()) => self.awaiting = true,
            Err(_) => self.conn = None, // leave no half-broken connection behind
        }
        written
    }

    /// Reads the answer to `req`, which [`start`](Self::start) wrote. A
    /// kept connection the server closed while it sat idle usually shows
    /// only here, so unless `start` already re-dialed, a broken read
    /// re-dials, writes `req` again and reads once more (server restarted
    /// / idle-closed). After an error the connection is gone: nothing of a
    /// half-read answer survives into the next exchange.
    pub fn finish(&mut self, req: &Request) -> Result<Response> {
        if !std::mem::take(&mut self.awaiting) {
            return Err(Error::invalid("http client: finish without a started request"));
        }
        let mut answer = self.read_response();
        if matches!(answer, Err(Error::Io(_) | Error::Protocol(_))) && !self.redialed {
            self.conn = None;
            answer = self.write_request(req).and_then(|()| self.read_response());
        }
        if answer.is_err() {
            self.conn = None;
        }
        answer
    }

    /// Sends a request, reusing the connection; retries once on a broken
    /// connection (server restarted / idle-closed).
    pub fn send(&mut self, req: &Request) -> Result<Response> {
        self.start(req)?;
        self.finish(req)
    }

    /// `GET path` (path may include a query string).
    pub fn get(&mut self, target: &str) -> Result<Response> {
        self.send(&Request::new("GET", target))
    }

    /// `POST path` with a raw body.
    pub fn post(&mut self, target: &str, body: &[u8]) -> Result<Response> {
        let mut req = Request::new("POST", target);
        req.body = body.to_vec();
        self.send(&req)
    }

    /// `POST path` with a text body (the line-protocol fast path).
    pub fn post_text(&mut self, target: &str, body: &str) -> Result<Response> {
        self.post(target, body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let server = Server::bind("127.0.0.1:0", 1, |_| Response::text(200, "one")).unwrap();
        let addr = server.addr();
        let mut c = HttpClient::connect(addr).unwrap();
        assert_eq!(c.get("/").unwrap().body_str(), "one");
        server.shutdown();
        // Same port, new server.
        let server2 = Server::bind(addr, 1, |_| Response::text(200, "two")).unwrap();
        assert_eq!(c.get("/").unwrap().body_str(), "two");
        server2.shutdown();
    }

    #[test]
    fn requests_to_two_peers_are_both_written_before_either_answer_is_read() {
        // Each server holds its answer until the *other* has its request:
        // only a caller that writes both before reading either gets through.
        let (a_got, a_seen) = std::sync::mpsc::channel::<()>();
        let (b_got, b_seen) = std::sync::mpsc::channel::<()>();
        let (a_seen, b_seen) = (std::sync::Mutex::new(a_seen), std::sync::Mutex::new(b_seen));
        let wait = |seen: &std::sync::Mutex<std::sync::mpsc::Receiver<()>>| {
            seen.lock().unwrap().recv_timeout(Duration::from_secs(5)).is_ok()
        };
        let a = Server::bind("127.0.0.1:0", 1, move |_| {
            a_got.send(()).unwrap();
            Response::text(200, if wait(&b_seen) { "a" } else { "a alone" })
        })
        .unwrap();
        let b = Server::bind("127.0.0.1:0", 1, move |_| {
            b_got.send(()).unwrap();
            Response::text(200, if wait(&a_seen) { "b" } else { "b alone" })
        })
        .unwrap();
        let (mut to_a, mut to_b) =
            (HttpClient::connect(a.addr()).unwrap(), HttpClient::connect(b.addr()).unwrap());
        let req = Request::new("GET", "/");
        to_a.start(&req).unwrap();
        to_b.start(&req).unwrap();
        assert_eq!(to_a.finish(&req).unwrap().body_str(), "a");
        assert_eq!(to_b.finish(&req).unwrap().body_str(), "b");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn an_abandoned_request_never_lends_its_answer_to_the_next() {
        let server =
            Server::bind("127.0.0.1:0", 1, |req| Response::text(200, req.path)).unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        c.start(&Request::new("GET", "/first")).unwrap();
        // `/first` is answered but never read; `/second` must get its own.
        assert_eq!(c.get("/second").unwrap().body_str(), "/second");
        assert_eq!(c.get("/third").unwrap().body_str(), "/third");
        assert!(c.finish(&Request::new("GET", "/third")).is_err(), "nothing is in flight");
        server.shutdown();
    }

    #[test]
    fn a_connection_that_died_idle_is_redialed_at_the_read() {
        let server = Server::bind("127.0.0.1:0", 1, |_| Response::text(200, "one")).unwrap();
        let addr = server.addr();
        let mut c = HttpClient::connect(addr).unwrap();
        assert_eq!(c.get("/").unwrap().body_str(), "one");
        server.shutdown();
        let server2 = Server::bind(addr, 1, |_| Response::text(200, "two")).unwrap();
        // The write lands in the dead socket's buffer; the loss shows when
        // the answer is read, and `finish` owns the one re-dial.
        let req = Request::new("GET", "/");
        c.start(&req).unwrap();
        assert_eq!(c.finish(&req).unwrap().body_str(), "two");
        server2.shutdown();
    }

    #[test]
    fn error_when_nothing_listens() {
        // Bind and immediately shut down to get a dead port.
        let server = Server::bind("127.0.0.1:0", 1, |_| Response::no_content()).unwrap();
        let addr = server.addr();
        server.shutdown();
        let mut c = HttpClient::connect(addr).unwrap();
        c.set_timeout(Duration::from_millis(300));
        assert!(c.get("/").is_err());
    }

    #[test]
    fn post_body_round_trip() {
        let server = Server::bind("127.0.0.1:0", 1, |req| {
            Response::text(200, format!("{}:{}", req.path, req.body.len()))
        })
        .unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        let r = c.post("/write?db=lms", &vec![b'x'; 10_000]).unwrap();
        assert_eq!(r.body_str(), "/write:10000");
        server.shutdown();
    }
}
