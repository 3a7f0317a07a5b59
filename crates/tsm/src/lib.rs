//! `lms-tsm`: the persistent time-series storage engine.
//!
//! Every database `lms-influx` holds stands on one `lms-tsm` engine; there
//! is no memory-only mode. It is an LSM-flavored persistence layer beneath
//! the in-memory index, sized for the monitoring workload (append-mostly,
//! time-ordered, per-series reads):
//!
//! * **Durability** — every acknowledged write batch lands in a CRC-framed
//!   [write-ahead log](wal) before the write call returns. Crash recovery
//!   replays the log; torn tails are detected by CRC and truncated, so the
//!   recovered state is exactly the acknowledged prefix.
//! * **Compression** — when a series' mutable head is flushed it is sealed
//!   into immutable [blocks](block): delta-of-delta varint timestamps,
//!   Gorilla-style XOR floats, dictionary-encoded strings (see [`encode`]).
//!   Regular scrapes compress well over 4x against the in-memory
//!   representation.
//! * **Bounded space** — sealed blocks live in time-partitioned
//!   [segment files](segment) (format `LMSTSM3`), one CRC frame per series
//!   per file, so a series' identity is written once per file, not once
//!   per block; retention deletes whole expired files without scanning,
//!   and background [compaction](engine) merges accumulated flush files
//!   and drops overwritten point versions. Files of the previous format,
//!   `LMSTSM2`, are still read, and compaction rewrites them as `LMSTSM3`.
//!
//! The crate is deliberately index-agnostic: it stores and recovers
//! `(series identity, sealed block)` pairs and WAL batches. The database
//! layer in `lms-influx` owns series semantics — which points are visible,
//! how overlapping versions resolve (last-write-wins by seal generation,
//! mutable head on top) — and drives the engine's flush/compaction
//! sessions from a background worker.

pub mod agg;
pub mod bits;
pub mod block;
pub mod encode;
pub mod engine;
pub mod scrub;
pub mod segment;
pub mod wal;

pub use agg::Agg;
pub use block::SealedBlock;
pub use engine::{
    DamagedRange, FlushSession, Health, QuarantineReport, Recovered, RewriteSession, TsmConfig,
    TsmEngine, TsmStats,
};
pub use scrub::{ScrubOutcome, Scrubber};
pub use segment::{BlockEntry, SegmentScan, SeriesId};
pub use wal::{Wal, WalConfig, WalRecord, WalRecovery};
