//! Wire framing: `u32` BE length, topic, `0x00`, payload.

use lms_util::{Error, Result};
use std::io::{Read, Write};

/// Control topic prefix for subscription management frames.
pub(crate) const CTRL_SUB: &str = "\u{1}SUB";
/// Control topic for unsubscription frames.
pub(crate) const CTRL_UNSUB: &str = "\u{1}UNSUB";

/// Frames larger than this are rejected (corrupt length guard).
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Buffer size of both ends of a connection: a burst of small frames
/// crosses the socket in few system calls.
pub(crate) const IO_BUFFER: usize = 64 * 1024;

/// One pub/sub message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Topic the message was published under.
    pub topic: String,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Serializes a frame into a fresh buffer.
pub(crate) fn encode(topic: &str, payload: &[u8]) -> Result<Vec<u8>> {
    if topic.as_bytes().contains(&0) {
        return Err(Error::invalid("topic must not contain NUL"));
    }
    let body_len = topic.len() + 1 + payload.len();
    if body_len > MAX_FRAME {
        return Err(Error::invalid(format!("frame of {body_len} bytes exceeds limit")));
    }
    let mut buf = Vec::with_capacity(4 + body_len);
    buf.extend_from_slice(&(body_len as u32).to_be_bytes());
    buf.extend_from_slice(topic.as_bytes());
    buf.push(0);
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Reads one frame from a stream. `Ok(None)` on clean EOF at a frame
/// boundary.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Option<Message>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(Error::protocol(format!("frame length {len} exceeds limit")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let sep = body
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| Error::protocol("frame missing topic separator"))?;
    let topic = std::str::from_utf8(&body[..sep])?.to_string();
    body.drain(..=sep);
    Ok(Some(Message { topic, payload: body }))
}

/// True when `buf` starts with a whole frame.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    match buf {
        [a, b, c, d, body @ ..] => body.len() >= u32::from_be_bytes([*a, *b, *c, *d]) as usize,
        _ => false,
    }
}

/// Writes a pre-encoded frame.
pub(crate) fn write_all(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    w.write_all(frame)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let frame = encode("job.start", b"payload bytes").unwrap();
        let mut cur = Cursor::new(frame);
        let m = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(m.topic, "job.start");
        assert_eq!(m.payload, b"payload bytes");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn holds_frame_needs_the_whole_frame() {
        let frame = encode("t", b"payload").unwrap();
        assert!(holds_frame(&frame));
        assert!(!holds_frame(&frame[..frame.len() - 1]));
        assert!(!holds_frame(&frame[..3]));
        assert!(!holds_frame(&[]));
    }

    #[test]
    fn empty_topic_and_payload() {
        let frame = encode("", b"").unwrap();
        let m = read_frame(&mut Cursor::new(frame)).unwrap().unwrap();
        assert_eq!(m.topic, "");
        assert!(m.payload.is_empty());
    }

    #[test]
    fn nul_in_topic_rejected() {
        assert!(encode("a\0b", b"x").is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut frame = encode("t", b"payload").unwrap();
        frame.truncate(6);
        assert!(read_frame(&mut Cursor::new(frame)).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn missing_separator_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // no NUL
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }
}
