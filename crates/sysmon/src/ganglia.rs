//! A gmond-compatible XML dump server.
//!
//! Ganglia's gmond answers any TCP connection to its port with a full XML
//! dump of the cluster state and closes. The paper integrates such legacy
//! sources through the router's pulling proxy; this module provides the
//! emitting side so the integration path can be exercised end to end.
//! Connections come through [`lms_util::net::Acceptor`] and are answered on
//! its accepting thread, so a dump needs no thread of its own.

use lms_util::net::Acceptor;
use lms_util::{FxHashMap, Result};
use parking_lot::RwLock;
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// One metric in the gmond state.
#[derive(Debug, Clone)]
pub struct GmondMetric {
    /// Metric name, e.g. `load_one`.
    pub name: String,
    /// Rendered value.
    pub value: String,
    /// Ganglia type: `float`, `uint32`, `string`, ...
    pub ty: &'static str,
    /// Units label.
    pub units: String,
}

#[derive(Debug, Default)]
struct State {
    /// host → (reported unix seconds, metrics by name).
    hosts: FxHashMap<String, (i64, FxHashMap<String, GmondMetric>)>,
    cluster: String,
}

fn escape_attr(s: &str) -> String {
    s.replace('&', "&amp;").replace('"', "&quot;").replace('<', "&lt;").replace('>', "&gt;")
}

impl State {
    fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n");
        out.push_str("<GANGLIA_XML VERSION=\"3.7.2\" SOURCE=\"gmond\">\n");
        out.push_str(&format!(
            "<CLUSTER NAME=\"{}\" LOCALTIME=\"0\" OWNER=\"lms\" URL=\"\">\n",
            escape_attr(&self.cluster)
        ));
        let mut hosts: Vec<_> = self.hosts.iter().collect();
        hosts.sort_by(|a, b| a.0.cmp(b.0));
        for (host, (reported, metrics)) in hosts {
            out.push_str(&format!(
                "<HOST NAME=\"{}\" IP=\"0.0.0.0\" REPORTED=\"{reported}\">\n",
                escape_attr(host)
            ));
            let mut ms: Vec<_> = metrics.values().collect();
            ms.sort_by(|a, b| a.name.cmp(&b.name));
            for m in ms {
                out.push_str(&format!(
                    "<METRIC NAME=\"{}\" VAL=\"{}\" TYPE=\"{}\" UNITS=\"{}\" TN=\"0\" TMAX=\"60\" SLOPE=\"both\"/>\n",
                    escape_attr(&m.name),
                    escape_attr(&m.value),
                    m.ty,
                    escape_attr(&m.units)
                ));
            }
            out.push_str("</HOST>\n");
        }
        out.push_str("</CLUSTER>\n</GANGLIA_XML>\n");
        out
    }
}

/// A running gmond-style server.
pub struct GmondServer {
    state: Arc<RwLock<State>>,
    acceptor: Acceptor,
}

impl GmondServer {
    /// Binds and starts answering connections with the XML dump.
    pub fn start<A: ToSocketAddrs>(addr: A, cluster: &str) -> Result<Self> {
        let state = Arc::new(RwLock::new(State {
            cluster: cluster.to_string(),
            ..Default::default()
        }));
        let dump = state.clone();
        let acceptor = Acceptor::bind(addr, "lms-gmond", "lms-gmond", move |mut stream, _| {
            let xml = dump.read().render();
            let _ = stream.write_all(xml.as_bytes());
            None
        })?;
        Ok(GmondServer { state, acceptor })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Updates (or adds) a metric for a host.
    pub fn update(
        &self,
        host: &str,
        reported_unix: i64,
        name: &str,
        value: impl std::fmt::Display,
        ty: &'static str,
        units: &str,
    ) {
        let mut st = self.state.write();
        let entry = st.hosts.entry(host.to_string()).or_insert_with(|| (0, FxHashMap::default()));
        entry.0 = reported_unix;
        entry.1.insert(
            name.to_string(),
            GmondMetric {
                name: name.to_string(),
                value: value.to_string(),
                ty,
                units: units.to_string(),
            },
        );
    }

    /// The XML a client would receive right now.
    pub fn render(&self) -> String {
        self.state.read().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpStream;

    #[test]
    fn serves_xml_dump_per_connection() {
        let server = GmondServer::start("127.0.0.1:0", "test-cluster").unwrap();
        server.update("h1", 1000, "load_one", 0.5, "float", "");
        server.update("h1", 1000, "mem_free", 12345u32, "uint32", "KB");
        server.update("h2", 1001, "load_one", 1.5, "float", "");

        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut xml = String::new();
        s.read_to_string(&mut xml).unwrap();
        assert!(xml.contains("<CLUSTER NAME=\"test-cluster\""));
        assert!(xml.contains("<HOST NAME=\"h1\""));
        assert!(xml.contains("NAME=\"load_one\" VAL=\"0.5\" TYPE=\"float\""));
        assert!(xml.contains("NAME=\"mem_free\" VAL=\"12345\" TYPE=\"uint32\" UNITS=\"KB\""));
        assert!(xml.contains("<HOST NAME=\"h2\""));

        // Updates replace, not append.
        server.update("h1", 1002, "load_one", 0.7, "float", "");
        let rendered = server.render();
        assert!(rendered.contains("VAL=\"0.7\""));
        assert!(!rendered.contains("VAL=\"0.5\""));
    }

    #[test]
    fn escapes_attribute_values() {
        let server = GmondServer::start("127.0.0.1:0", "c<\">&x").unwrap();
        server.update("h1", 1, "os", "4.4 \"LTS\" <x>", "string", "");
        let xml = server.render();
        assert!(xml.contains("NAME=\"c&lt;&quot;&gt;&amp;x\""));
        assert!(xml.contains("VAL=\"4.4 &quot;LTS&quot; &lt;x&gt;\""));
    }
}
