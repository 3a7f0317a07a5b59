//! The spool's record codec.
//!
//! Each record is one [`lms_util::seglog`] frame whose payload is
//!
//! ```text
//! [db_len: u16 LE][db: UTF-8][body: UTF-8]
//! ```
//!
//! [`decode_segment`] applies the spool's corruption policy: a *corrupt*
//! frame (its CRC or its payload does not verify — a bit flip at rest)
//! is counted in `corrupt_records` and loses only its own record, and the
//! scan goes on at the next frame; the *torn tail* (a crash mid-append)
//! ends it, and `clean_len` marks where, so recovery can truncate there.

use lms_util::seglog::{frames, put_frame, FRAME_HEADER};

/// Upper bound on one payload (db + body); larger lengths are treated as
/// corruption. 64 MiB is far above any realistic forwarder batch.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// One spooled delivery: a line-protocol batch destined for `db`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Target database name.
    pub db: String,
    /// Line-protocol batch body.
    pub body: String,
}

/// Bytes one record occupies on disk.
pub fn encoded_len(db: &str, body: &str) -> usize {
    FRAME_HEADER + 2 + db.len() + body.len()
}

/// Appends the framed record to `out`. Panics if `db` exceeds `u16::MAX`
/// bytes or the payload exceeds [`MAX_PAYLOAD`] (callers pass database names
/// and forwarder batches, both far smaller).
pub fn encode_record(db: &str, body: &str, out: &mut Vec<u8>) {
    assert!(db.len() <= u16::MAX as usize, "db name too long to spool");
    out.reserve(encoded_len(db, body));
    put_frame(out, MAX_PAYLOAD, |out| {
        out.extend_from_slice(&(db.len() as u16).to_le_bytes());
        out.extend_from_slice(db.as_bytes());
        out.extend_from_slice(body.as_bytes());
    });
}

/// The records of one segment's bytes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Decoded {
    /// Cleanly decoded records, in append order.
    pub records: Vec<Record>,
    /// Frames skipped because their CRC (or payload encoding) did not
    /// verify. Each one loses exactly its own record; the frames around it
    /// still decode.
    pub corrupt_records: u64,
    /// Bytes scanned (decoded or skipped-as-corrupt) — everything past this
    /// offset is a torn tail (crash mid-append) and must be discarded.
    pub clean_len: usize,
}

/// Decodes every intact record from `buf`, skipping (and counting) corrupt
/// frames and stopping at the torn tail.
pub fn decode_segment(buf: &[u8]) -> Decoded {
    let mut out = Decoded::default();
    let mut scan = frames(buf, 2..=MAX_PAYLOAD);
    for (_, payload) in scan.by_ref() {
        match payload.and_then(decode_payload) {
            Some(record) => out.records.push(record),
            None => out.corrupt_records += 1,
        }
    }
    out.clean_len = scan.offset();
    out
}

/// A CRC-clean payload that does not decode is corruption that collided
/// with the checksum (or an encoder bug): still one frame, still skipped.
fn decode_payload(payload: &[u8]) -> Option<Record> {
    let (db_len, rest) = payload.split_at(2);
    let db_len = u16::from_le_bytes(db_len.try_into().unwrap()) as usize;
    let db = std::str::from_utf8(rest.get(..db_len)?).ok()?;
    let body = std::str::from_utf8(&rest[db_len..]).ok()?;
    Some(Record { db: db.to_string(), body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_util::hash::crc32;

    fn encode(records: &[(&str, &str)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (db, body) in records {
            encode_record(db, body, &mut buf);
        }
        buf
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values from the zlib crc32() implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn round_trip_multiple_records() {
        let buf = encode(&[("lms", "m v=1 1\nm v=2 2"), ("user_alice", ""), ("lms", "x y=3 3")]);
        let out = decode_segment(&buf);
        assert_eq!(out.clean_len, buf.len());
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].db, "lms");
        assert_eq!(out.records[0].body, "m v=1 1\nm v=2 2");
        assert_eq!(out.records[1].body, "");
        assert_eq!(buf.len(), encoded_len("lms", "m v=1 1\nm v=2 2")
            + encoded_len("user_alice", "")
            + encoded_len("lms", "x y=3 3"));
    }

    #[test]
    fn torn_tail_keeps_intact_prefix() {
        let buf = encode(&[("lms", "a v=1 1"), ("lms", "b v=2 2")]);
        let first_len = encoded_len("lms", "a v=1 1");
        for cut in first_len..buf.len() {
            let out = decode_segment(&buf[..cut]);
            assert_eq!(out.records.len(), 1, "cut at {cut}");
            assert_eq!(out.clean_len, first_len);
        }
        // Cutting inside the first record loses everything.
        let out = decode_segment(&buf[..first_len - 1]);
        assert_eq!(out.records.len(), 0);
        assert_eq!(out.clean_len, 0);
    }

    #[test]
    fn corrupt_frame_is_skipped_and_counted() {
        let mut buf = encode(&[("lms", "a v=1 1"), ("lms", "b v=2 2"), ("lms", "c v=3 3")]);
        let first_len = encoded_len("lms", "a v=1 1");
        buf[first_len + FRAME_HEADER + 3] ^= 0xFF; // flip a payload byte of record 2
        let out = decode_segment(&buf);
        // The damaged frame loses only itself: its neighbors survive.
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].body, "a v=1 1");
        assert_eq!(out.records[1].body, "c v=3 3");
        assert_eq!(out.corrupt_records, 1);
        assert_eq!(out.clean_len, buf.len());
    }

    #[test]
    fn corrupt_crc_field_skips_only_its_frame() {
        let mut buf = encode(&[("lms", "a v=1 1"), ("lms", "b v=2 2")]);
        buf[4] ^= 0x01; // flip a CRC byte of record 1
        let out = decode_segment(&buf);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].body, "b v=2 2");
        assert_eq!(out.corrupt_records, 1);
        assert_eq!(out.clean_len, buf.len());
    }

    #[test]
    fn corrupt_length_is_not_trusted() {
        let mut buf = encode(&[("lms", "a v=1 1")]);
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        let out = decode_segment(&buf);
        assert_eq!(out.records.len(), 0);
        assert_eq!(out.clean_len, 0);
    }

    #[test]
    fn empty_buffer_is_clean() {
        assert_eq!(decode_segment(&[]), Decoded::default());
    }
}
