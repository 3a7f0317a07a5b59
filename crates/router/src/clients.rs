//! The router's kept connections to one database node.
//!
//! A request to a node costs a round trip on a connection that is already
//! open, not a TCP handshake and a thread spawn on the node: every user of
//! a node — the forwarder's workers, its spool drainer, the query scatter,
//! the repair pass — checks a keep-alive [`InfluxClient`] out of the
//! node's one [`NodeClients`] set and hands it back when its exchange has
//! run to completion. A client whose exchange broke (timeout, reset, an
//! answer left unread) is dropped instead, which closes its connection:
//! nothing half-read is ever handed to the next user. A node restart
//! leaves the idle clients holding dead connections; each finds out on its
//! next exchange and re-dials once inside `HttpClient`, so the restart is
//! invisible to callers.

use lms_influx::InfluxClient;
use lms_util::{Error, Result};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::time::Duration;

/// Idle clients kept per node; one handed back beyond it is closed.
///
/// Sized against the node's admission cap, which is never under
/// [`lms_http::MIN_CONNECTION_CAP`] = 16 connections: half of that floor.
/// At rest a router therefore holds ≤ 8 connections to a node, which
/// leaves 8 for what dials on top — a burst of more concurrent exchanges
/// than the set holds (forwarder workers + drainer + queries; those
/// connections close on return), a second router, an operator's `curl`.
/// Enough to keep: the forwarder's `workers + 1` on up to 7 cores plus the
/// query path at a few concurrent views.
pub const MAX_IDLE_CLIENTS: usize = lms_http::MIN_CONNECTION_CAP / 2;

/// The checkout/return set of keep-alive clients for one node.
pub struct NodeClients {
    addr: SocketAddr,
    io_timeout: Duration,
    idle: Mutex<Vec<InfluxClient>>,
}

impl NodeClients {
    /// An empty set for the node at `addr`; clients dial on first use,
    /// with `io_timeout` on connect, read and write.
    pub fn new(addr: SocketAddr, io_timeout: Duration) -> Self {
        NodeClients { addr, io_timeout, idle: Mutex::new(Vec::with_capacity(MAX_IDLE_CLIENTS)) }
    }

    /// The node's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The most recently returned idle client, or a new one.
    pub fn checkout(&self) -> Result<InfluxClient> {
        if let Some(client) = self.idle.lock().pop() {
            return Ok(client);
        }
        let mut client = InfluxClient::connect(self.addr)?;
        client.set_timeout(self.io_timeout);
        Ok(client)
    }

    /// Hands back a client whose last exchange ran to completion (answer
    /// fully read, and not a 5xx — the node closes a connection it shed).
    pub fn give_back(&self, client: InfluxClient) {
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE_CLIENTS {
            idle.push(client);
        }
    }

    /// Runs one exchange on a kept client. The client goes back to the set
    /// when the node answered (success or a 4xx); any other outcome drops
    /// it.
    pub fn with<T>(&self, exchange: impl FnOnce(&mut InfluxClient) -> Result<T>) -> Result<T> {
        let mut client = self.checkout()?;
        let result = exchange(&mut client);
        let answered = match &result {
            Ok(_) => true,
            Err(Error::Remote { status, .. }) => *status < 500,
            Err(_) => false,
        };
        if answered {
            self.give_back(client);
        }
        result
    }

    #[cfg(test)]
    fn idle_count(&self) -> usize {
        self.idle.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_http::{FaultConfig, FaultProxy};
    use lms_influx::{Influx, InfluxServer};
    use lms_util::{Clock, Timestamp};

    fn node() -> (InfluxServer, Influx) {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        influx.write_lines("lms", "a v=1 1\nb v=2 2", Default::default()).unwrap();
        (InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap(), influx)
    }

    #[test]
    fn keeps_up_to_the_bound_and_closes_the_rest() {
        let (server, _ix) = node();
        let clients = NodeClients::new(server.addr(), Duration::from_secs(2));
        let mut out: Vec<InfluxClient> =
            (0..MAX_IDLE_CLIENTS + 3).map(|_| clients.checkout().unwrap()).collect();
        for client in &mut out {
            client.ping().unwrap();
        }
        for client in out {
            clients.give_back(client);
        }
        assert_eq!(clients.idle_count(), MAX_IDLE_CLIENTS);
        // Reuse, not re-dial: the kept ones serve the next exchanges.
        for _ in 0..4 * MAX_IDLE_CLIENTS {
            clients.with(|c| c.ping()).unwrap();
        }
        assert_eq!(server.accepted_connections(), (MAX_IDLE_CLIENTS + 3) as u64);
        server.shutdown();
    }

    #[test]
    fn the_node_answering_4xx_keeps_the_client_and_5xx_or_silence_does_not() {
        let (server, _ix) = node();
        let proxy = FaultProxy::start(server.addr(), FaultConfig::default()).unwrap();
        let clients = NodeClients::new(proxy.addr(), Duration::from_millis(150));
        let name_of = |r: lms_influx::QueryResult| r.series[0].name.clone();

        assert_eq!(name_of(clients.with(|c| c.query("lms", "SELECT v FROM a")).unwrap()), "a");
        assert_eq!(clients.idle_count(), 1);
        let err = clients.with(|c| c.query("ghost", "SELECT v FROM a")).unwrap_err();
        assert!(matches!(err, Error::Remote { status: 404, .. }), "{err}");
        assert_eq!(clients.idle_count(), 1, "a 404 is a complete exchange");

        // The node reads the request and never answers: the read times
        // out (twice — the one re-dial), and the client is closed.
        proxy.set_blackhole(true);
        let err = clients.with(|c| c.query("lms", "SELECT v FROM a")).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(clients.idle_count(), 0, "a timed-out client is never kept");
        proxy.set_blackhole(false);
        // The next exchange gets its own answer, not the one `a` was owed.
        assert_eq!(name_of(clients.with(|c| c.query("lms", "SELECT v FROM b")).unwrap()), "b");
        assert_eq!(clients.idle_count(), 1);

        proxy.set_down();
        assert!(clients.with(|c| c.ping()).is_err());
        assert_eq!(clients.idle_count(), 0);
        proxy.set_up();
        clients.with(|c| c.ping()).unwrap();
        proxy.shutdown();
        server.shutdown();
    }
}
