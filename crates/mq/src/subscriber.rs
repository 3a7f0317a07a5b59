//! The SUB side: connect, declare topic prefixes, receive.

use crate::frame::{self, Message, CTRL_SUB, CTRL_UNSUB, IO_BUFFER};
use lms_util::{Error, Result};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long the rest of a frame may take once its first byte arrived
/// (frames are small; the publisher writes them whole).
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// A subscriber connection to one [`Publisher`](crate::Publisher).
///
/// `recv_timeout` reads on the calling thread; a subscriber is therefore
/// single-consumer (wrap in your own thread for background consumption —
/// the stream analyzer in `lms-analysis` does exactly that).
pub struct Subscriber {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The read timeout the socket has now, so a receive changes it only
    /// when it differs.
    timeout: Option<Duration>,
}

impl Subscriber {
    /// Connects to a publisher.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::config("address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(IO_BUFFER, stream.try_clone()?);
        Ok(Subscriber { reader, writer: stream, timeout: None })
    }

    /// A handle on this subscriber's connection for another thread:
    /// shutting it down makes a [`recv`](Self::recv) blocked here return
    /// the close error at once.
    pub fn connection(&self) -> Result<TcpStream> {
        Ok(self.writer.try_clone()?)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        if self.timeout != timeout {
            self.reader.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Subscribes to a topic prefix. The empty string matches everything.
    pub fn subscribe(&mut self, prefix: &str) -> Result<()> {
        self.send_ctrl(CTRL_SUB, prefix)
    }

    /// Removes a previously registered prefix.
    pub fn unsubscribe(&mut self, prefix: &str) -> Result<()> {
        self.send_ctrl(CTRL_UNSUB, prefix)
    }

    fn send_ctrl(&mut self, ctrl: &str, prefix: &str) -> Result<()> {
        use std::io::Write as _;
        let f = frame::encode(ctrl, prefix.as_bytes())?;
        self.writer.write_all(&f)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `Ok(None)` on timeout; `Err` when the publisher went away.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>> {
        use std::io::BufRead as _;
        // Wait only when nothing is buffered: frames that arrived in one
        // read are then taken one by one without a socket call.
        if self.reader.buffer().is_empty() {
            // Peek (without consuming) so a timeout cannot strand us mid-frame.
            self.set_timeout(Some(timeout))?;
            match self.reader.fill_buf() {
                Ok([]) => return Err(Error::protocol("publisher closed the connection")),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
        // A frame has started arriving: the socket is read again only if
        // part of it is still on its way.
        if !frame::holds_frame(self.reader.buffer()) {
            self.set_timeout(Some(FRAME_TIMEOUT))?;
        }
        match frame::read_frame(&mut self.reader)? {
            Some(m) => Ok(Some(m)),
            None => Err(Error::protocol("publisher closed the connection")),
        }
    }

    /// Receives, blocking indefinitely.
    pub fn recv(&mut self) -> Result<Message> {
        self.set_timeout(None)?;
        match frame::read_frame(&mut self.reader)? {
            Some(m) => Ok(m),
            None => Err(Error::protocol("publisher closed the connection")),
        }
    }
}
