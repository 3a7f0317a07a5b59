//! # lms-router
//!
//! The **metrics router** — the central component of the LIKWID Monitoring
//! Stack (paper Sec. III-B). It:
//!
//! - mimics the HTTP write interface of an InfluxDB database, so any
//!   existing collector (Diamond, curl cronjobs, Ganglia pull proxies) can
//!   point at it unchanged,
//! - adds an endpoint for **job start/end signals** from the scheduler;
//!   signals are piggy-backed with tags that land in the **tag store**,
//!   keyed by hostname,
//! - **enriches** every incoming metric and event with the job tags of its
//!   host before forwarding to the database,
//! - forwards signals into the database as events ("to be used later as
//!   annotations in the graphs"),
//! - optionally serves **per-user databases** (`user_<name>`): the
//!   database nodes' views of the one stored copy, scoped to a user,
//! - optionally **publishes** metrics and meta information via the message
//!   queue for stream analyzers.
//!
//! Modules: [`tagstore`] (hostname → job tags), [`forward`] (buffered,
//! durable, retrying delivery to one database, which marks the node down
//! when a run uses up its retries and replays the spool until it answers
//! again), [`delivery`] (the cluster fabric: per-node forwarders behind a
//! seeded rendezvous ring, quorum writes, hinted handoff, scatter-gather
//! reads that skip a down node), [`clients`] (the kept connections to one
//! node that all of those share), [`repair`] (anti-entropy read-repair:
//! digest diffing and divergent-range replay), [`router`] (the enrichment
//! core), [`server`] (its own HTTP endpoints, and the database's read API
//! over the router), [`proxy`] (the Ganglia gmond pull proxy).

pub mod clients;
pub mod delivery;
pub mod forward;
pub mod proxy;
pub mod repair;
pub mod router;
pub mod server;
pub mod tagstore;

pub use clients::{NodeClients, MAX_IDLE_CLIENTS};
pub use delivery::{ClusterForwarder, DestinationStats};
pub use forward::{ForwardConfig, ForwardStats, Forwarder};
pub use lms_cluster::ClusterConfig;
pub use repair::RepairOutcome;
pub use router::{Router, RouterConfig, RouterStats, WriteOutcome};
pub use server::RouterServer;
pub use tagstore::{JobSignal, JobTags, TagStore};
