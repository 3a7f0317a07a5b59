//! The stack-wide error type.
//!
//! LMS components are loosely coupled over wire protocols, so most errors are
//! either protocol violations (bad line-protocol syntax, malformed HTTP),
//! I/O failures, or configuration mistakes. A single enum keeps error
//! plumbing between crates simple without pulling in `thiserror`/`anyhow`
//! (not in the offline dependency set).

use std::fmt;

/// Stack-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// The error type used across all LMS crates.
#[derive(Debug)]
pub enum Error {
    /// Malformed input on a wire protocol (line protocol, HTTP, MQ framing,
    /// Ganglia XML, JSON). Carries a human-readable description including
    /// position information where available.
    Protocol(String),
    /// Configuration file/value problems.
    Config(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A query referenced something that does not exist (measurement,
    /// database, dashboard template, performance group, ...).
    NotFound(String),
    /// An operation was rejected because it would violate an invariant
    /// (e.g. counter allocation over capacity, backwards timestamps where
    /// monotonicity is required).
    Invalid(String),
    /// The remote side answered with an application-level error
    /// (HTTP status >= 400); carries status and body.
    Remote { status: u16, message: String },
    /// The component is temporarily refusing work to protect itself
    /// (admission limit reached, storage degraded to read-only). The
    /// operation was *not* attempted; retrying later may succeed, so the
    /// delivery pipeline treats this as transient. HTTP servers map it to
    /// `503 Service Unavailable` with a `Retry-After` hint.
    Unavailable(String),
}

/// Delivery-oriented error taxonomy: what the forwarding pipeline should
/// do with a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying may succeed (connection failures, remote 5xx/429): retry
    /// with backoff, then spool.
    Transient,
    /// Retrying can never succeed (protocol violations, remote 4xx,
    /// invariant violations): reject immediately, never spool.
    Permanent,
}

impl Error {
    /// Shorthand for a protocol error with a formatted message.
    pub fn protocol(msg: impl Into<String>) -> Self {
        Error::Protocol(msg.into())
    }

    /// Shorthand for a config error with a formatted message.
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config(msg.into())
    }

    /// Shorthand for a not-found error.
    pub fn not_found(msg: impl Into<String>) -> Self {
        Error::NotFound(msg.into())
    }

    /// Shorthand for an invariant violation.
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::Invalid(msg.into())
    }

    /// Shorthand for a temporary refusal (overload shedding, degraded
    /// storage).
    pub fn unavailable(msg: impl Into<String>) -> Self {
        Error::Unavailable(msg.into())
    }

    /// Classifies the error for the delivery pipeline (see [`ErrorClass`]).
    /// I/O failures and remote 5xx/429 are transient; everything else —
    /// protocol violations, remote 4xx, config/invariant errors — is
    /// permanent and must not be retried or spooled.
    pub fn class(&self) -> ErrorClass {
        match self {
            Error::Io(_) => ErrorClass::Transient,
            Error::Remote { status, .. } if *status >= 500 || *status == 429 => {
                ErrorClass::Transient
            }
            Error::Unavailable(_) => ErrorClass::Transient,
            _ => ErrorClass::Permanent,
        }
    }

    /// True when retrying the operation might succeed (transient I/O or
    /// remote 5xx); used by the router's forwarding retry loop.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Error::Config(m) => write!(f, "config error: {m}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Invalid(m) => write!(f, "invalid operation: {m}"),
            Error::Remote { status, message } => {
                write!(f, "remote error (status {status}): {message}")
            }
            Error::Unavailable(m) => write!(f, "temporarily unavailable: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<std::num::ParseIntError> for Error {
    fn from(e: std::num::ParseIntError) -> Self {
        Error::Protocol(format!("invalid integer: {e}"))
    }
}

impl From<std::num::ParseFloatError> for Error {
    fn from(e: std::num::ParseFloatError) -> Self {
        Error::Protocol(format!("invalid float: {e}"))
    }
}

impl From<std::str::Utf8Error> for Error {
    fn from(e: std::str::Utf8Error) -> Self {
        Error::Protocol(format!("invalid utf-8: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(Error::protocol("bad line").to_string(), "protocol error: bad line");
        assert_eq!(Error::not_found("db x").to_string(), "not found: db x");
        let e = Error::Remote { status: 503, message: "overloaded".into() };
        assert!(e.to_string().contains("503"));
    }

    #[test]
    fn transient_classification() {
        assert!(Error::from(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "x"))
            .is_transient());
        assert!(Error::Remote { status: 500, message: String::new() }.is_transient());
        assert!(Error::Remote { status: 503, message: String::new() }.is_transient());
        assert!(Error::Remote { status: 429, message: String::new() }.is_transient());
        assert!(!Error::Remote { status: 400, message: String::new() }.is_transient());
        assert!(!Error::protocol("x").is_transient());
        assert!(Error::unavailable("shedding").is_transient());
    }

    #[test]
    fn taxonomy_is_a_partition() {
        let errors = [
            Error::protocol("x"),
            Error::config("x"),
            Error::from(std::io::Error::other("x")),
            Error::not_found("x"),
            Error::invalid("x"),
            Error::Remote { status: 404, message: String::new() },
            Error::Remote { status: 500, message: String::new() },
            Error::unavailable("x"),
        ];
        for e in &errors {
            assert_eq!(e.is_transient(), e.class() == ErrorClass::Transient);
        }
    }

    #[test]
    fn conversions() {
        let e: Error = "abc".parse::<i64>().unwrap_err().into();
        assert!(matches!(e, Error::Protocol(_)));
        let e: Error = "abc".parse::<f64>().unwrap_err().into();
        assert!(matches!(e, Error::Protocol(_)));
    }
}
