//! The Ganglia pull proxy.
//!
//! "For data that needs to be pulled from other sources, like the
//! XML-interface of Ganglia's monitoring daemon gmond, a pulling proxy can
//! push the data into the router."
//!
//! Real gmond dumps its cluster state as XML to anyone who connects to its
//! TCP port; [`pull_gmond`] does exactly that, [`parse_gmond_xml`] converts
//! the `<HOST>`/`<METRIC>` tree into line-protocol points (measurement
//! `ganglia_<metric>`, `hostname` tag, host report time), and
//! [`GangliaProxy`] periodically pushes the result into a router.
//!
//! The XML subset parser below handles exactly what gmond emits: nested
//! elements with double-quoted attributes, self-closing tags, XML
//! declarations/doctype lines, and `&...;` entities in attribute values.

use crate::router::Router;
use lms_lineproto::Point;
use lms_util::{Error, Result};
use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A minimal XML tag event.
#[derive(Debug, PartialEq)]
enum XmlEvent<'a> {
    /// `<NAME attr="v" …>` — `self_closing` when `/>`.
    Open { name: &'a str, attrs: Vec<(&'a str, String)>, self_closing: bool },
    /// `</NAME>`
    Close(&'a str),
}

fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Iterates tag events over an XML document, skipping text content,
/// comments, processing instructions and doctypes.
fn xml_events(xml: &str) -> Result<Vec<XmlEvent<'_>>> {
    let mut events = Vec::new();
    let bytes = xml.as_bytes();
    let mut i = 0;
    while let Some(lt) = xml[i..].find('<') {
        let start = i + lt;
        let Some(gt) = xml[start..].find('>') else {
            return Err(Error::protocol("xml: unterminated tag"));
        };
        let end = start + gt;
        let inner = &xml[start + 1..end];
        i = end + 1;
        if inner.starts_with('?') || inner.starts_with('!') {
            continue; // declaration, doctype, comment (gmond's are one-liners)
        }
        if let Some(name) = inner.strip_prefix('/') {
            events.push(XmlEvent::Close(name.trim()));
            continue;
        }
        let self_closing = inner.ends_with('/');
        let inner = inner.strip_suffix('/').unwrap_or(inner);
        let name_end = inner.find(char::is_whitespace).unwrap_or(inner.len());
        let name = &inner[..name_end];
        if name.is_empty() {
            return Err(Error::protocol(format!("xml: empty tag name at byte {start}")));
        }
        let mut attrs = Vec::new();
        let mut rest = inner[name_end..].trim_start();
        while !rest.is_empty() {
            let Some(eq) = rest.find('=') else {
                return Err(Error::protocol(format!("xml: bad attribute in <{name}>")));
            };
            let key = rest[..eq].trim();
            let after = rest[eq + 1..].trim_start();
            let Some(q) = after.strip_prefix('"') else {
                return Err(Error::protocol(format!("xml: unquoted attribute in <{name}>")));
            };
            let Some(close) = q.find('"') else {
                return Err(Error::protocol(format!("xml: unterminated attribute in <{name}>")));
            };
            attrs.push((key, decode_entities(&q[..close])));
            rest = q[close + 1..].trim_start();
        }
        let _ = bytes;
        events.push(XmlEvent::Open { name, attrs, self_closing });
    }
    Ok(events)
}

/// Converts a gmond XML dump into line-protocol points.
///
/// Numeric metric types (`float`, `double`, `uint*`, `int*`) become float
/// fields named `value`; string metrics become string fields. Timestamps
/// come from the enclosing `<HOST REPORTED="...">` (seconds → ns).
pub fn parse_gmond_xml(xml: &str) -> Result<Vec<Point>> {
    let mut out = Vec::new();
    let mut current_host: Option<(String, i64)> = None;
    for event in xml_events(xml)? {
        match event {
            XmlEvent::Open { name: "HOST", attrs, .. } => {
                let host = attrs
                    .iter()
                    .find(|(k, _)| *k == "NAME")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| Error::protocol("gmond: HOST without NAME"))?;
                let reported: i64 = attrs
                    .iter()
                    .find(|(k, _)| *k == "REPORTED")
                    .and_then(|(_, v)| v.parse().ok())
                    .unwrap_or(0);
                current_host = Some((host, reported.saturating_mul(1_000_000_000)));
            }
            XmlEvent::Close("HOST") => current_host = None,
            XmlEvent::Open { name: "METRIC", attrs, .. } => {
                let Some((host, ts)) = &current_host else {
                    return Err(Error::protocol("gmond: METRIC outside HOST"));
                };
                let get = |key: &str| attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str());
                let Some(metric) = get("NAME") else { continue };
                let Some(val) = get("VAL") else { continue };
                let ty = get("TYPE").unwrap_or("string");
                let mut p = Point::new(format!("ganglia_{metric}"));
                p.add_tag("hostname", host.as_str());
                if let Some(units) = get("UNITS").filter(|u| !u.is_empty()) {
                    p.add_tag("units", units);
                }
                let numeric = matches!(
                    ty,
                    "float" | "double" | "uint8" | "uint16" | "uint32" | "uint64" | "int8"
                        | "int16" | "int32" | "int64"
                );
                if numeric {
                    match val.parse::<f64>() {
                        Ok(v) => {
                            p.add_field("value", v);
                        }
                        Err(_) => continue, // skip unparseable numeric metric
                    }
                } else {
                    p.add_field("value", val);
                }
                p.set_timestamp(*ts);
                out.push(p);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Connects to a gmond-style TCP dump port and reads the full XML document.
pub fn pull_gmond<A: ToSocketAddrs>(addr: A) -> Result<String> {
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::config("gmond address resolved to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut xml = String::new();
    stream.read_to_string(&mut xml)?;
    Ok(xml)
}

/// Periodic puller pushing gmond data into a router.
pub struct GangliaProxy {
    gmond_addr: SocketAddr,
}

impl GangliaProxy {
    /// Creates a proxy for one gmond endpoint.
    pub fn new<A: ToSocketAddrs>(gmond_addr: A) -> Result<Self> {
        let gmond_addr = gmond_addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::config("gmond address resolved to nothing"))?;
        Ok(GangliaProxy { gmond_addr })
    }

    /// Pulls once and pushes the converted batch into the router.
    /// Returns the number of points pushed.
    pub fn pull_once(&self, router: &Router) -> Result<usize> {
        let xml = pull_gmond(self.gmond_addr)?;
        let points = parse_gmond_xml(&xml)?;
        let mut batch = lms_lineproto::BatchBuilder::with_capacity(points.len() * 48);
        for p in &points {
            batch.push(p);
        }
        let n = batch.len();
        router.handle_write(None, batch.as_str());
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE GANGLIA_XML [ ]>
<GANGLIA_XML VERSION="3.7.2" SOURCE="gmond">
<CLUSTER NAME="lms-cluster" LOCALTIME="1501804800" OWNER="rrze" URL="">
<HOST NAME="h1" IP="10.0.0.1" REPORTED="1501804800">
<METRIC NAME="load_one" VAL="0.53" TYPE="float" UNITS="" TN="10" TMAX="70" SLOPE="both"/>
<METRIC NAME="mem_free" VAL="1048576" TYPE="uint32" UNITS="KB" TN="20" TMAX="180" SLOPE="both"/>
<METRIC NAME="os_release" VAL="4.4 &quot;LTS&quot;" TYPE="string" UNITS="" TN="30" TMAX="1200" SLOPE="zero"/>
</HOST>
<HOST NAME="h2" IP="10.0.0.2" REPORTED="1501804860">
<METRIC NAME="load_one" VAL="1.97" TYPE="float" UNITS="" TN="12" TMAX="70" SLOPE="both"/>
</HOST>
</CLUSTER>
</GANGLIA_XML>
"#;

    #[test]
    fn parses_gmond_dump() {
        let points = parse_gmond_xml(SAMPLE).unwrap();
        assert_eq!(points.len(), 4);
        let p = &points[0];
        assert_eq!(p.measurement(), "ganglia_load_one");
        assert_eq!(p.tag("hostname"), Some("h1"));
        assert_eq!(p.field("value").unwrap().as_f64(), Some(0.53));
        assert_eq!(p.timestamp(), Some(1_501_804_800_000_000_000));
        // uint metric with units tag
        let mem = &points[1];
        assert_eq!(mem.tag("units"), Some("KB"));
        assert_eq!(mem.field("value").unwrap().as_f64(), Some(1_048_576.0));
        // string metric with entity-decoded value
        let os = &points[2];
        assert_eq!(os.field("value"), Some(&lms_lineproto::FieldValue::Text(r#"4.4 "LTS""#.into())));
        // second host's report time differs
        assert_eq!(points[3].timestamp(), Some(1_501_804_860_000_000_000));
    }

    #[test]
    fn rejects_malformed_xml() {
        assert!(parse_gmond_xml("<HOST NAME=\"h1\"").is_err()); // unterminated
        assert!(parse_gmond_xml("<METRIC NAME=\"x\" VAL=\"1\" TYPE=\"float\"/>").is_err()); // outside HOST
        assert!(parse_gmond_xml("<HOST REPORTED=\"1\"><METRIC/></HOST>").is_err()); // no NAME
        assert!(parse_gmond_xml("<A b=c>").is_err()); // unquoted attr
    }

    #[test]
    fn skips_unparseable_numeric_values() {
        let xml = r#"<HOST NAME="h1" REPORTED="1">
<METRIC NAME="bad" VAL="not-a-number" TYPE="float"/>
<METRIC NAME="good" VAL="2.5" TYPE="float"/>
</HOST>"#;
        let points = parse_gmond_xml(xml).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].measurement(), "ganglia_good");
    }

    #[test]
    fn pull_once_pushes_into_router() {
        use lms_influx::{Influx, InfluxServer};
        use lms_util::{Clock, Timestamp};
        use std::io::Write as _;

        // gmond-style dump server: write XML, close.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let gmond_addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let _ = s.write_all(SAMPLE.as_bytes());
            }
        });

        let clock = Clock::simulated(Timestamp::from_secs(2_000_000_000));
        let influx = Influx::new(clock.clone()).unwrap();
        let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let router = Router::new(db.addr(), Default::default(), clock, None).unwrap();

        let proxy = GangliaProxy::new(gmond_addr).unwrap();
        let n = proxy.pull_once(&router).unwrap();
        assert_eq!(n, 4);
        assert!(router.flush(Duration::from_secs(5)));
        let r = influx.query("lms", "SELECT value FROM ganglia_load_one").unwrap();
        let total: usize = r.series.iter().map(|s| s.values.len()).sum();
        assert_eq!(total, 2);
        t.join().unwrap();
        db.shutdown();
    }
}
