//! One TCP acceptor for every listener in the stack.
//!
//! An [`Acceptor`] binds, accepts on a named thread and runs each admitted
//! connection on a named thread of its own, tracking every live one.
//! Stopping it shuts the read side of each tracked socket — an idle read
//! returns at once, an answer in flight can still be written — then joins
//! the acceptor and every connection thread. So nothing a connection
//! captured outlives its listener, and no connection thread polls a flag
//! to learn that it should end: its blocked read ends instead.

use crate::{FxHashMap, Result};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What runs on an admitted connection's own thread.
pub type Connection = Box<dyn FnOnce(TcpStream) + Send>;

/// The live connections by id: a clone of each socket, to shut it from
/// outside, and the thread serving it.
type Conns = FxHashMap<u64, (TcpStream, Option<JoinHandle<()>>)>;

#[derive(Default)]
struct Live {
    stopping: AtomicBool,
    conns: Mutex<Conns>,
}

impl Live {
    /// Every update is one map insert or remove, so a guard a panicking
    /// thread left behind still holds a valid map.
    fn conns(&self) -> MutexGuard<'_, Conns> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tracks `stream` as connection `id` and runs `body` on it on a thread
    /// named `name`. The thread stops being tracked once `body` and all it
    /// captured are dropped, panic or not.
    fn spawn(self: &Arc<Self>, id: u64, name: &str, stream: TcpStream, body: Connection) {
        let Ok(tracked) = stream.try_clone() else { return };
        self.conns().insert(id, (tracked, None));
        let untrack = Untrack(Arc::clone(self), id);
        let spawned = std::thread::Builder::new().name(name.into()).spawn(move || {
            let _untrack = untrack;
            body(stream);
        });
        // A thread that failed to start, or has already ended, untracked
        // itself when its closure was dropped.
        if let (Ok(thread), Some(entry)) = (spawned, self.conns().get_mut(&id)) {
            entry.1 = Some(thread);
        }
    }
}

struct Untrack(Arc<Live>, u64);

impl Drop for Untrack {
    fn drop(&mut self) {
        self.0.conns().remove(&self.1);
    }
}

/// A bound listener and its live connections. Dropping it (or calling
/// [`stop`](Self::stop)) stops accepting, ends every connection's reads
/// and joins every thread.
pub struct Acceptor {
    addr: SocketAddr,
    live: Arc<Live>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds `addr` (port 0 for an ephemeral port) and accepts on a thread
    /// named `name`. Every accepted stream gets `TCP_NODELAY` and goes to
    /// `on_accept` with the number of live connections. What that returns
    /// runs on a thread named `conn_name`; `None` closes the stream once
    /// `on_accept` is done with it (answered inline, or shed).
    pub fn bind<A, F>(
        addr: A,
        name: &str,
        conn_name: &'static str,
        mut on_accept: F,
    ) -> Result<Self>
    where
        A: ToSocketAddrs,
        F: FnMut(&TcpStream, usize) -> Option<Connection> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let live = Arc::new(Live::default());
        let accepting = Arc::clone(&live);
        let thread = std::thread::Builder::new().name(name.into()).spawn(move || {
            for (id, stream) in (0..).zip(listener.incoming()) {
                if accepting.stopping.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                let live = accepting.conns().len();
                if let Some(body) = on_accept(&stream, live) {
                    accepting.spawn(id, conn_name, stream, body);
                }
            }
        })?;
        Ok(Acceptor { addr, live, thread: Some(thread) })
    }

    /// The bound address (port 0 resolved to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections whose thread is still running.
    pub fn live(&self) -> usize {
        self.live.conns().len()
    }

    /// Shuts both directions of every live connection, as a crashed peer
    /// would, and keeps accepting.
    pub fn sever(&self) {
        for (stream, _) in self.live.conns().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stops accepting, shuts the read side of every live connection and
    /// joins every thread. Idempotent.
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.live.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // wakes the blocked accept
        let _ = thread.join();
        // No connection is admitted from here on.
        let conns: Vec<_> = self.live.conns().drain().map(|(_, conn)| conn).collect();
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for thread in conns.into_iter().filter_map(|(_, thread)| thread) {
            let _ = thread.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    fn echo() -> Acceptor {
        Acceptor::bind("127.0.0.1:0", "test-acceptor", "test-conn", |_, _| {
            Some(Box::new(|mut s: TcpStream| {
                let mut buf = [0u8; 64];
                while let Ok(n @ 1..) = s.read(&mut buf) {
                    if s.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            }))
        })
        .unwrap()
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn serves_tracks_and_untracks_connections() {
        let acceptor = echo();
        let mut a = TcpStream::connect(acceptor.addr()).unwrap();
        let b = TcpStream::connect(acceptor.addr()).unwrap();
        a.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        wait_for("two live connections", || acceptor.live() == 2);
        drop(b);
        wait_for("one live connection", || acceptor.live() == 1);
    }

    #[test]
    fn stop_ends_idle_reads_and_joins_every_thread() {
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let mut acceptor = Acceptor::bind("127.0.0.1:0", "test-acceptor", "test-conn", move |_, _| {
            let held = Arc::clone(&held);
            Some(Box::new(move |mut s: TcpStream| {
                let _held = held;
                let _ = s.read(&mut [0u8; 8]);
            }))
        })
        .unwrap();
        let _idle: Vec<_> =
            (0..3).map(|_| TcpStream::connect(acceptor.addr()).unwrap()).collect();
        wait_for("three live connections", || acceptor.live() == 3);
        acceptor.stop();
        assert_eq!(Arc::strong_count(&token), 1, "a connection outlived its acceptor");
        acceptor.stop();
    }

    #[test]
    fn sever_cuts_live_connections_and_keeps_accepting() {
        let acceptor = echo();
        let mut a = TcpStream::connect(acceptor.addr()).unwrap();
        wait_for("a live connection", || acceptor.live() == 1);
        acceptor.sever();
        let mut buf = Vec::new();
        assert_eq!(a.read_to_end(&mut buf).unwrap_or(0), 0, "severed: EOF");
        let mut b = TcpStream::connect(acceptor.addr()).unwrap();
        b.write_all(b"ok").unwrap();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");
    }

    #[test]
    fn inline_answers_get_no_thread() {
        let acceptor = Acceptor::bind("127.0.0.1:0", "test-acceptor", "test-conn", |s, live| {
            let nodelay = s.nodelay().unwrap();
            let _ = (&*s).write_all(format!("live={live} nodelay={nodelay}").as_bytes());
            None
        })
        .unwrap();
        let mut text = String::new();
        TcpStream::connect(acceptor.addr()).unwrap().read_to_string(&mut text).unwrap();
        assert_eq!(text, "live=0 nodelay=true");
        assert_eq!(acceptor.live(), 0);
    }
}
