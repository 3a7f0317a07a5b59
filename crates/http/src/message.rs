//! HTTP/1.1 request and response messages: parsing and serialization over
//! buffered streams, `Content-Length` bodies only.

use crate::url::split_path_query;
use lms_util::{Error, Result};
use std::io::{BufRead, Read, Write};

/// Maximum accepted header block (DoS guard for a trusted-network tool).
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted body (a full node's metric batch is ~100 KiB; leave
/// generous slack for aggregated pushes).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method, upper-case (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Headers, keys lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a request with no headers or body.
    pub fn new(method: &str, target: &str) -> Self {
        let (path, query) = split_path_query(target);
        Request {
            method: method.to_ascii_uppercase(),
            path: path.to_string(),
            query,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// True when the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Reads one request from a buffered stream. Returns `Ok(None)` on a
    /// clean EOF before any bytes (keep-alive connection closed).
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Request>> {
        Self::read_from_limited(r, MAX_BODY_BYTES)
    }

    /// [`Request::read_from`] with a per-server body cap. A declared
    /// `Content-Length` above `max_body` is rejected *before* reading the
    /// body, as `Error::Remote {{ status: 413 }}` so the server can answer
    /// `413 Payload Too Large` instead of a generic 400.
    pub fn read_from_limited(r: &mut impl BufRead, max_body: usize) -> Result<Option<Request>> {
        let request_line = match read_line(r, true)? {
            None => return Ok(None),
            Some(l) => l,
        };
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| Error::protocol("empty request line"))?
            .to_ascii_uppercase();
        let target = parts.next().ok_or_else(|| Error::protocol("missing request target"))?;
        let version = parts.next().unwrap_or("HTTP/1.1");
        if !version.starts_with("HTTP/1.") {
            return Err(Error::protocol(format!("unsupported version `{version}`")));
        }
        let (path, query) = split_path_query(target);
        let headers = read_headers(r)?;
        let declared = content_length(&headers)?;
        if declared > max_body.min(MAX_BODY_BYTES) {
            return Err(Error::Remote {
                status: 413,
                message: format!("body of {declared} bytes exceeds limit of {max_body}"),
            });
        }
        let body = read_body(r, &headers)?;
        Ok(Some(Request {
            method,
            path: crate::url::percent_decode(path),
            query,
            headers,
            body,
        }))
    }

    /// Serializes to a writer (adds `Content-Length`, keeps other headers).
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let mut target = self.path.clone();
        if !self.query.is_empty() {
            let pairs: Vec<(&str, &str)> =
                self.query.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            target.push('?');
            target.push_str(&crate::url::build_query(&pairs));
        }
        write!(w, "{} {} HTTP/1.1\r\n", self.method, target)?;
        for (k, v) in &self.headers {
            if k != "content-length" {
                write!(w, "{k}: {v}\r\n")?;
            }
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, keys lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn status(status: u16) -> Self {
        Response { status, headers: Vec::new(), body: Vec::new() }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        let mut r = Response::status(status);
        r.headers.push(("content-type".into(), "text/plain; charset=utf-8".into()));
        r.body = body.into().into_bytes();
        r
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        let mut r = Response::status(status);
        r.headers.push(("content-type".into(), "application/json".into()));
        r.body = body.into().into_bytes();
        r
    }

    /// `204 No Content` — what the InfluxDB write endpoint answers.
    pub fn no_content() -> Self {
        Response::status(204)
    }

    /// `404 Not Found` with a plain-text message.
    pub fn not_found(msg: &str) -> Self {
        Response::text(404, msg)
    }

    /// `400 Bad Request` with a plain-text message.
    pub fn bad_request(msg: &str) -> Self {
        Response::text(400, msg)
    }

    /// `503 Service Unavailable` with a `Retry-After` hint — the overload
    /// shedding answer: cheap to produce, tells well-behaved clients when
    /// to come back.
    pub fn service_unavailable(msg: &str, retry_after_secs: u64) -> Self {
        let mut r = Response::text(503, msg);
        r.headers.push(("retry-after".into(), retry_after_secs.to_string()));
        r
    }

    /// First value of a header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Converts a non-2xx response into the stack error type.
    pub fn into_result(self) -> Result<Response> {
        if self.is_success() {
            Ok(self)
        } else {
            Err(Error::Remote { status: self.status, message: self.body_str().into_owned() })
        }
    }

    /// Reads one response from a buffered stream.
    pub fn read_from(r: &mut impl BufRead) -> Result<Response> {
        // A connection that dies before answering is an I/O failure, not a
        // protocol violation — the delivery taxonomy retries it.
        let status_line = read_line(r, true)?.ok_or_else(|| {
            Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before response",
            ))
        })?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(Error::protocol(format!("bad status line `{status_line}`")));
        }
        let status: u16 = parts
            .next()
            .ok_or_else(|| Error::protocol("missing status code"))?
            .parse()
            .map_err(|_| Error::protocol("bad status code"))?;
        let headers = read_headers(r)?;
        let body = read_body(r, &headers)?;
        Ok(Response { status, headers, body })
    }

    /// Serializes to a writer.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (k, v) in &self.headers {
            if k != "content-length" {
                write!(w, "{k}: {v}\r\n")?;
            }
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Reads a CRLF/LF-terminated line. `allow_eof`: EOF before any byte yields
/// `None` instead of an error.
fn read_line(r: &mut impl BufRead, allow_eof: bool) -> Result<Option<String>> {
    let mut line = Vec::new();
    let mut limited = r.take(MAX_HEADER_BYTES as u64);
    let n = limited
        .read_until(b'\n', &mut line)
        .map_err(Error::Io)?;
    if n == 0 {
        return if allow_eof {
            Ok(None)
        } else {
            Err(Error::protocol("unexpected end of stream"))
        };
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    Ok(Some(String::from_utf8(line).map_err(|e| Error::protocol(e.to_string()))?))
}

fn read_headers(r: &mut impl BufRead) -> Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_line(r, false)?.expect("read_line(false) never returns None");
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEADER_BYTES {
            return Err(Error::protocol("header block too large"));
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| Error::protocol(format!("malformed header `{line}`")))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
}

/// Declared `Content-Length`, or 0 when absent.
fn content_length(headers: &[(String, String)]) -> Result<usize> {
    headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| Error::protocol("bad content-length")))
        .transpose()
        .map(|n| n.unwrap_or(0))
}

fn read_body(r: &mut impl BufRead, headers: &[(String, String)]) -> Result<Vec<u8>> {
    let len: usize = content_length(headers)?;
    if len > MAX_BODY_BYTES {
        return Err(Error::protocol(format!("body of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(Error::Io)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn request_round_trip() {
        let mut req = Request::new("post", "/write?db=lms&precision=s");
        req.body = b"cpu v=1".to_vec();
        req.headers.push(("x-custom".into(), "yes".into()));
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();

        let mut reader = BufReader::new(Cursor::new(wire));
        let parsed = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/write");
        assert_eq!(parsed.query_param("db"), Some("lms"));
        assert_eq!(parsed.query_param("precision"), Some("s"));
        assert_eq!(parsed.header("x-custom"), Some("yes"));
        assert_eq!(parsed.body, b"cpu v=1");
        assert!(!parsed.wants_close());
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(200, r#"{"results":[]}"#);
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let parsed = Response::read_from(&mut reader).unwrap();
        assert_eq!(parsed.status, 200);
        assert!(parsed.is_success());
        assert_eq!(parsed.header("content-type"), Some("application/json"));
        assert_eq!(parsed.body_str(), r#"{"results":[]}"#);
    }

    #[test]
    fn keep_alive_reads_two_requests() {
        let mut wire = Vec::new();
        Request::new("GET", "/a").write_to(&mut wire).unwrap();
        Request::new("GET", "/b").write_to(&mut wire).unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        assert_eq!(Request::read_from(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(Request::read_from(&mut reader).unwrap().unwrap().path, "/b");
        assert!(Request::read_from(&mut reader).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn query_decoding_in_request_line() {
        let wire = b"GET /query?q=SELECT%20mean(%22value%22)&db=lms HTTP/1.1\r\n\r\n".to_vec();
        let mut reader = BufReader::new(Cursor::new(wire));
        let req = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(req.query_param("q"), Some(r#"SELECT mean("value")"#));
    }

    #[test]
    fn rejects_malformed_input() {
        for wire in [
            &b"NOT_HTTP\r\n\r\n"[..],
            &b"GET /a HTTP/2.0\r\n\r\n"[..],
            &b"GET /a HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /a HTTP/1.1\r\ncontent-length: abc\r\n\r\n"[..],
        ] {
            let mut reader = BufReader::new(Cursor::new(wire.to_vec()));
            assert!(Request::read_from(&mut reader).is_err(), "{wire:?}");
        }
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let wire = b"POST /w HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort".to_vec();
        let mut reader = BufReader::new(Cursor::new(wire));
        assert!(matches!(Request::read_from(&mut reader), Err(Error::Io(_))));
    }

    #[test]
    fn oversized_body_rejected_up_front() {
        let wire = format!("POST /w HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut reader = BufReader::new(Cursor::new(wire.into_bytes()));
        assert!(Request::read_from(&mut reader).is_err());
    }

    #[test]
    fn connection_close_detected() {
        let wire = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let mut reader = BufReader::new(Cursor::new(wire));
        assert!(Request::read_from(&mut reader).unwrap().unwrap().wants_close());
    }

    #[test]
    fn per_server_body_cap_yields_413() {
        let wire = b"POST /w HTTP/1.1\r\ncontent-length: 100\r\n\r\n".to_vec();
        let mut reader = BufReader::new(Cursor::new(wire));
        let err = Request::read_from_limited(&mut reader, 64).unwrap_err();
        assert!(matches!(err, Error::Remote { status: 413, .. }), "{err}");
    }

    #[test]
    fn service_unavailable_carries_retry_after() {
        let r = Response::service_unavailable("shedding", 2);
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("2"));
    }

    #[test]
    fn into_result_maps_statuses() {
        assert!(Response::no_content().into_result().is_ok());
        let err = Response::bad_request("nope").into_result().unwrap_err();
        assert!(matches!(err, Error::Remote { status: 400, .. }));
    }
}
