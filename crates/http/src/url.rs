//! Query-string handling: percent-encoding and parameter parsing.

/// Percent-decodes a query component (`%41` → `A`, `+` → space).
///
/// Invalid escapes are kept verbatim — lenient like most servers.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hi = hex(bytes[i + 1]);
                let lo = hex(bytes[i + 2]);
                match (hi, lo) {
                    (Some(h), Some(l)) => {
                        out.push(h * 16 + l);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a query component (RFC 3986 unreserved set kept).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                const HEX: &[u8; 16] = b"0123456789ABCDEF";
                out.push('%');
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0x0F)] as char);
            }
        }
    }
    out
}

fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Splits `path?query` and parses the query into decoded key/value pairs.
pub fn split_path_query(target: &str) -> (&str, Vec<(String, String)>) {
    match target.split_once('?') {
        Some((path, query)) => (path, parse_query(query)),
        None => (target, Vec::new()),
    }
}

/// Parses `a=1&b=two%20words` into decoded pairs. Keys without `=` get an
/// empty value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Builds a query string from pairs (keys and values encoded).
pub fn build_query(pairs: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        if !out.is_empty() {
            out.push('&');
        }
        out.push_str(&percent_encode(k));
        out.push('=');
        out.push_str(&percent_encode(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_basics() {
        assert_eq!(percent_decode("abc"), "abc");
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%41%62%63"), "Abc");
        assert_eq!(percent_decode("100%25"), "100%");
    }

    #[test]
    fn decode_lenient_on_bad_escapes() {
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn encode_round_trip() {
        for s in ["hello world", "a=b&c", "db/name", "100%", "ünïcödé"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("db=lms&precision=ns&q=SELECT%20*&flag");
        assert_eq!(q[0], ("db".into(), "lms".into()));
        assert_eq!(q[2], ("q".into(), "SELECT *".into()));
        assert_eq!(q[3], ("flag".into(), String::new()));
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn split_target() {
        let (p, q) = split_path_query("/write?db=lms");
        assert_eq!(p, "/write");
        assert_eq!(q.len(), 1);
        let (p, q) = split_path_query("/ping");
        assert_eq!(p, "/ping");
        assert!(q.is_empty());
    }

    #[test]
    fn build_query_encodes() {
        assert_eq!(build_query(&[("q", "a b"), ("db", "lms")]), "q=a%20b&db=lms");
        assert_eq!(build_query(&[]), "");
    }
}
