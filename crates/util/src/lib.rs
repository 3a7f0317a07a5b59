//! # lms-util
//!
//! Shared substrate for the LIKWID Monitoring Stack (LMS) reproduction.
//!
//! This crate intentionally has no dependencies on the rest of the stack; it
//! provides the small pieces every other crate needs:
//!
//! - [`clock`]: a pluggable time source so simulations can run a "10 minute"
//!   pathological-job window in milliseconds of wall time,
//! - [`hash`]: an Fx-style fast hasher for hot hash maps (tag stores, series
//!   indexes) where HashDoS resistance is irrelevant,
//! - [`error`]: the stack-wide error type,
//! - [`args`]: the command-line reader every binary takes its flags
//!   through,
//! - [`rng`]: a tiny deterministic SplitMix64/XorShift generator for
//!   simulator noise,
//! - [`ring`]: seeded rendezvous hashing, shared by the router's placement
//!   logic and the storage nodes' integrity digests,
//! - [`digest`]: Merkle-style range digests and their diff, the vocabulary
//!   of the anti-entropy repair protocol,
//! - [`scratch`]: a temporary directory removed when dropped,
//! - [`seglog`]: the segmented, CRC-framed append-only log under the
//!   storage engine's WAL and segment files and the router's spool,
//! - [`fmt`]: human-readable byte/duration/number formatting for reports,
//! - [`supervisor`]: panic-capturing restart supervision for background
//!   worker threads,
//! - [`net`]: the one TCP acceptor every listener accepts, tracks and
//!   stops its connections through.

pub mod args;
pub mod clock;
pub mod digest;
pub mod error;
pub mod fmt;
pub mod hash;
pub mod json;
pub mod net;
pub mod ring;
pub mod rng;
pub mod scratch;
pub mod seglog;
pub mod supervisor;

pub use clock::{Clock, Timestamp};
pub use error::{Error, Result};
pub use hash::{FxHashMap, FxHashSet};
pub use json::Json;
pub use supervisor::{Supervisor, SupervisorConfig, WorkerCtx, WorkerHealth, WorkerReport};
