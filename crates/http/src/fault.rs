//! Deterministic TCP fault-injection proxy for chaos tests.
//!
//! Sits between an HTTP client and an upstream server and misbehaves on
//! purpose: drops connections mid-exchange, delays requests, answers
//! `503` without consulting the upstream, goes fully down, or blackholes
//! (accepts requests and never answers). All probabilistic faults are
//! driven by a seeded [`XorShift64`] — the
//! same seed replays the same fault schedule, so a chaos test failure
//! reproduces under `LMS_CHAOS_SEED=<n>`.
//!
//! The proxy parses individual HTTP requests (rather than shuttling raw
//! bytes) so faults land on request boundaries and keep-alive
//! connections stay coherent between faults.

use crate::message::{Request, Response};
use lms_util::rng::XorShift64;
use lms_util::{Error, Result};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault schedule configuration. Probabilities are evaluated per request
/// in the order: error → drop → delay.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed; the whole fault schedule is a pure function of it.
    pub seed: u64,
    /// Probability of answering `503` without contacting the upstream.
    pub error_prob: f64,
    /// Probability of dropping the connection instead of answering.
    pub drop_prob: f64,
    /// Probability of delaying the exchange by `delay`.
    pub delay_prob: f64,
    /// The injected delay.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            error_prob: 0.0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(50),
        }
    }
}

#[derive(Default)]
struct FaultStats {
    forwarded: AtomicU64,
    injected_errors: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
}

struct Shared {
    upstream: SocketAddr,
    cfg: FaultConfig,
    stats: FaultStats,
    /// Down: refuse new exchanges and kill live connections.
    down: AtomicBool,
    /// Blackhole: accept requests, never answer (clients hit timeouts).
    blackhole: AtomicBool,
    stop: AtomicBool,
    /// Live downstream connections (by id), so `set_down`/`shutdown` can
    /// sever them mid-exchange like a crashed server would.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

/// A running fault proxy.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts the proxy on an ephemeral local port, forwarding to
    /// `upstream`.
    pub fn start<A: ToSocketAddrs>(upstream: A, cfg: FaultConfig) -> Result<Self> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::config("upstream resolved to nothing"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            cfg,
            stats: FaultStats::default(),
            down: AtomicBool::new(false),
            blackhole: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let acceptor = std::thread::Builder::new()
            .name("lms-fault-proxy".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn fault proxy");
        Ok(FaultProxy { addr, shared, acceptor: Some(acceptor) })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Takes the proxied destination fully down: live connections are
    /// severed and new exchanges are refused until [`set_up`](Self::set_up).
    pub fn set_down(&self) {
        self.shared.down.store(true, Ordering::Release);
        self.shared.kill_connections();
    }

    /// Brings the destination back up.
    pub fn set_up(&self) {
        self.shared.down.store(false, Ordering::Release);
    }

    /// Blackhole mode: requests are read and then never answered, so
    /// clients sit on the socket until their own timeout fires.
    pub fn set_blackhole(&self, on: bool) {
        self.shared.blackhole.store(on, Ordering::Release);
    }

    /// `(forwarded, injected_errors, dropped, delayed)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let s = &self.shared.stats;
        (
            s.forwarded.load(Ordering::Relaxed),
            s.injected_errors.load(Ordering::Relaxed),
            s.dropped.load(Ordering::Relaxed),
            s.delayed.load(Ordering::Relaxed),
        )
    }

    /// Stops the proxy and severs every connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.kill_connections();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

impl Shared {
    fn kill_connections(&self) {
        let mut conns = self.conns.lock().expect("conns lock");
        for (_, c) in conns.drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Severs one connection and stops tracking it. `shutdown` (not just
    /// dropping our handles) is essential: a tracked clone would keep the
    /// socket open and the client would wait out its full timeout instead
    /// of seeing the connection die.
    fn sever(&self, id: u64, stream: &TcpStream) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        self.conns.lock().expect("conns lock").retain(|(i, _)| *i != id);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut conn_index: u64 = 0;
    while !shared.stop.load(Ordering::Acquire) {
        let Ok((stream, _)) = listener.accept() else { break };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        conn_index += 1;
        // Each connection gets its own deterministic RNG stream, so the
        // fault schedule does not depend on thread interleaving.
        let rng = XorShift64::new(shared.cfg.seed.wrapping_add(conn_index.wrapping_mul(0x9E37)));
        if let Ok(track) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push((conn_index, track));
        }
        let conn_shared = shared.clone();
        let id = conn_index;
        let _ = std::thread::Builder::new()
            .name(format!("lms-fault-conn-{conn_index}"))
            .spawn(move || serve_connection(id, stream, &conn_shared, rng));
    }
}

/// Serves one downstream connection request-by-request, injecting faults
/// at request boundaries. Every exit severs the socket via
/// [`Shared::sever`] so the client observes the drop immediately.
fn serve_connection(id: u64, stream: TcpStream, shared: &Shared, mut rng: XorShift64) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            shared.sever(id, &stream);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut upstream: Option<TcpStream> = None;
    while let Ok(Some(req)) = Request::read_from(&mut reader) {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if shared.down.load(Ordering::Acquire) {
            shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
            break; // connection drops like against a dead host
        }
        if shared.blackhole.load(Ordering::Acquire) {
            // Swallow the request; never answer. Wait for the mode to
            // change or the client to give up, then drop the connection.
            while shared.blackhole.load(Ordering::Acquire)
                && !shared.stop.load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if rng.next_f64() < shared.cfg.error_prob {
            shared.stats.injected_errors.fetch_add(1, Ordering::Relaxed);
            if Response::text(503, "injected fault").write_to(&mut writer).is_err() {
                break;
            }
            continue;
        }
        if rng.next_f64() < shared.cfg.drop_prob {
            shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if rng.next_f64() < shared.cfg.delay_prob {
            shared.stats.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(shared.cfg.delay);
        }
        match forward(&req, &mut upstream, shared.upstream) {
            Ok(resp) => {
                shared.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                if resp.write_to(&mut writer).is_err() {
                    break;
                }
            }
            Err(_) => {
                // Upstream actually unreachable: behave like it.
                shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    shared.sever(id, &writer);
}

/// Forwards one request over a (kept-alive, lazily connected) upstream
/// connection; reconnects once on a broken connection.
fn forward(
    req: &Request,
    upstream: &mut Option<TcpStream>,
    addr: SocketAddr,
) -> Result<Response> {
    for fresh in [false, true] {
        if fresh || upstream.is_none() {
            let s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            *upstream = Some(s);
        }
        let stream = upstream.as_mut().expect("just set");
        let attempt = (|| {
            req.write_to(stream, None)?;
            let mut r = BufReader::new(stream.try_clone()?);
            Response::read_from(&mut r)
        })();
        match attempt {
            Ok(resp) => return Ok(resp),
            Err(_) if !fresh => *upstream = None, // retry on a fresh conn
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the fresh attempt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::server::Server;

    fn upstream() -> Server {
        Server::bind("127.0.0.1:0", 2, |req| {
            Response::text(200, format!("echo {}", req.path))
        })
        .unwrap()
    }

    #[test]
    fn transparent_when_no_faults_configured() {
        let server = upstream();
        let proxy = FaultProxy::start(server.addr(), FaultConfig::default()).unwrap();
        let mut c = HttpClient::connect(proxy.addr()).unwrap();
        for _ in 0..3 {
            let r = c.get("/x").unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body_str(), "echo /x");
        }
        assert_eq!(proxy.stats().0, 3);
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn error_injection_answers_503_without_upstream() {
        let server = upstream();
        let proxy = FaultProxy::start(
            server.addr(),
            FaultConfig { error_prob: 1.0, ..FaultConfig::default() },
        )
        .unwrap();
        let mut c = HttpClient::connect(proxy.addr()).unwrap();
        let r = c.get("/x").unwrap();
        assert_eq!(r.status, 503);
        let (forwarded, errors, _, _) = proxy.stats();
        assert_eq!((forwarded, errors), (0, 1));
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn down_severs_and_refuses_until_up() {
        let server = upstream();
        let proxy = FaultProxy::start(server.addr(), FaultConfig::default()).unwrap();
        let mut c = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(c.get("/a").unwrap().status, 200);
        proxy.set_down();
        assert!(c.get("/b").is_err(), "down proxy must sever the exchange");
        proxy.set_up();
        let mut c2 = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(c2.get("/c").unwrap().status, 200);
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let server = upstream();
        let schedule = |seed: u64| -> Vec<u16> {
            let proxy = FaultProxy::start(
                server.addr(),
                FaultConfig { seed, error_prob: 0.5, ..FaultConfig::default() },
            )
            .unwrap();
            let mut c = HttpClient::connect(proxy.addr()).unwrap();
            let out: Vec<u16> = (0..16).map(|_| c.get("/s").unwrap().status).collect();
            proxy.shutdown();
            out
        };
        let a = schedule(7);
        let b = schedule(7);
        let c = schedule(8);
        assert_eq!(a, b, "same seed must replay the same faults");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.contains(&503) && a.contains(&200), "{a:?}");
        server.shutdown();
    }

    #[test]
    fn blackhole_times_out_client() {
        let server = upstream();
        let proxy = FaultProxy::start(server.addr(), FaultConfig::default()).unwrap();
        proxy.set_blackhole(true);
        let mut c = HttpClient::connect(proxy.addr()).unwrap();
        c.set_timeout(Duration::from_millis(200));
        let start = std::time::Instant::now();
        assert!(c.get("/x").is_err(), "blackholed request must fail by timeout");
        assert!(start.elapsed() >= Duration::from_millis(150));
        proxy.set_blackhole(false);
        proxy.shutdown();
        server.shutdown();
    }
}
