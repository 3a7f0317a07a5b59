//! # lms-http
//!
//! A minimal HTTP/1.1 server and client over `std::net` TCP sockets.
//!
//! The paper's core interoperability claim is that *every* LMS component
//! speaks plain HTTP ("the communication protocol inside the whole system
//! (HTTP) is commonly available on all machines"). This crate provides just
//! enough of HTTP/1.1 for that: request/response with `Content-Length`
//! bodies, query strings with percent-encoding, persistent connections, and
//! a small thread-pool server — no external dependencies, no TLS, no
//! chunked encoding (no LMS component needs it).
//!
//! ```
//! use lms_http::{Server, Response, HttpClient};
//!
//! let server = Server::bind("127.0.0.1:0", 2, |req| {
//!     Response::text(200, format!("hello {}", req.query_param("name").unwrap_or("world")))
//! }).unwrap();
//!
//! let mut client = HttpClient::connect(server.addr()).unwrap();
//! let resp = client.get("/greet?name=lms").unwrap();
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.body_str(), "hello lms");
//! server.shutdown();
//! ```

pub mod client;
pub mod fault;
pub mod message;
pub mod server;
pub mod url;

pub use client::HttpClient;
pub use fault::{FaultConfig, FaultProxy};
pub use message::{Request, Response};
pub use server::{Server, ServerConfig, MIN_CONNECTION_CAP};
