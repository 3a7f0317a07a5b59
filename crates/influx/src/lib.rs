//! # lms-influx
//!
//! An embedded time-series database with an **InfluxDB-compatible HTTP
//! API** — the storage back-end of the LMS reproduction.
//!
//! The paper chooses InfluxDB because it "can handle floating-point data as
//! well as strings as input values representing metrics and events". LMS
//! uses a small slice of it: line-protocol writes, and range/aggregate
//! queries for dashboards and analysis. This crate implements that slice:
//!
//! - [`storage`] — series (measurement + tag set) holding per-field,
//!   time-sorted columns of typed values,
//! - [`db`] — databases and the [`Influx`] embedded handle (thread-safe,
//!   usable without any server), with one module each for sealing,
//!   retention, rollups, integrity and the storage worker,
//! - [`query`] — an InfluxQL-subset parser: `SELECT` with aggregations,
//!   time-range and tag predicates, `GROUP BY time(...)` and tags, `ORDER BY
//!   time DESC`, `LIMIT`, plus `SHOW MEASUREMENTS` / `SHOW TAG VALUES` /
//!   `SHOW FIELD KEYS` / `CREATE DATABASE`, and the router-internal
//!   `PARTIAL` marker of a cluster read,
//! - [`exec`] — query execution (per-series sources, one fold) and
//!   InfluxDB-shaped JSON results,
//! - [`server`] — the HTTP API over `lms-http`: the read routes and health
//!   probes written once over [`server::ReadApi`], which the router serves
//!   too, and the node's own `/write`, `/stats` and `/integrity*`,
//! - [`client`] — a typed client for the same API (used by the router,
//!   dashboard agent and analysis).
//!
//! ```
//! use lms_influx::Influx;
//! use lms_util::{Clock, Timestamp};
//!
//! // A node on a scratch data directory, removed when `influx` drops.
//! let influx = Influx::new(Clock::simulated(Timestamp::from_secs(100))).unwrap();
//! influx.write_lines("lms", "cpu,hostname=h1 value=0.5 99000000000", Default::default()).unwrap();
//! influx.write_lines("lms", "cpu,hostname=h1 value=0.7 100000000000", Default::default()).unwrap();
//!
//! let result = influx.query("lms", "SELECT mean(value) FROM cpu").unwrap();
//! let mean = result.series[0].values[0][1].as_f64().unwrap();
//! assert!((mean - 0.6).abs() < 1e-12);
//! ```

pub mod client;
pub mod db;
pub mod exec;
pub mod query;
pub mod server;
pub mod storage;

pub use client::InfluxClient;
pub use db::{
    Database, Influx, QueryTuning, RollupPolicy, StorageConfig, StorageStats, StorageWorker,
    WriteOptions,
};
pub use exec::{QueryResult, ResultSeries, TierCtx};
pub use query::Statement;
pub use storage::Scan;
pub use server::InfluxServer;

/// The persistent storage engine (re-exported for direct use in tests and
/// tooling).
pub use lms_tsm as tsm;

/// The downsampling tier vocabulary (re-exported so callers configuring
/// [`RollupPolicy`] or [`Influx::set_query_tiers`] need no extra dep).
pub use lms_rollup as rollup;
pub use lms_rollup::Tier;

/// The global database every metric lands in (the paper's "lms").
pub const GLOBAL_DB: &str = "lms";

/// The user `db` is the view of, if any: `user_<name>` reads [`GLOBAL_DB`]
/// with `user = '<name>'` added to every statement — a user's own
/// database, without their points stored twice.
pub fn user_view(db: &str) -> Option<&str> {
    db.strip_prefix("user_").filter(|name| !name.is_empty())
}

/// Anything that can answer InfluxQL queries: the embedded [`Influx`]
/// handle (in-process stack) or an [`InfluxClient`] (remote database).
/// The analysis layer and the dashboard agent are generic over this, so
/// they work unchanged against a real InfluxDB.
pub trait QuerySource {
    /// Runs a query against a database.
    fn query_source(&mut self, db: &str, q: &str) -> lms_util::Result<QueryResult>;

    /// Runs `stmts` against one database and answers them in order; the
    /// first statement that fails fails the batch, as a loop of
    /// [`query_source`](Self::query_source) with `?` would. A view asks
    /// for everything one stage needs in one call, so a remote source can
    /// make it one round trip; the default is that loop.
    fn query_batch(&mut self, db: &str, stmts: &[String]) -> lms_util::Result<Vec<QueryResult>> {
        stmts.iter().map(|q| self.query_source(db, q)).collect()
    }
}

impl QuerySource for Influx {
    fn query_source(&mut self, db: &str, q: &str) -> lms_util::Result<QueryResult> {
        self.query(db, q)
    }
}

impl QuerySource for InfluxClient {
    fn query_source(&mut self, db: &str, q: &str) -> lms_util::Result<QueryResult> {
        self.query(db, q)
    }

    /// One request for the whole list (none for an empty one).
    fn query_batch(&mut self, db: &str, stmts: &[String]) -> lms_util::Result<Vec<QueryResult>> {
        if stmts.is_empty() {
            return Ok(Vec::new());
        }
        self.query_statements(db, stmts)?.into_iter().collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lms_util::{Clock, Timestamp};
    use proptest::prelude::*;

    /// Random points on one series: (seconds offset, value).
    fn points_strategy() -> impl Strategy<Value = Vec<(i64, f64)>> {
        proptest::collection::vec((0i64..3600, -1000.0..1000.0f64), 1..60).prop_map(|mut v| {
            // Unique timestamps (duplicates overwrite; keep the invariant
            // statements simple).
            v.sort_by_key(|&(t, _)| t);
            v.dedup_by_key(|&mut (t, _)| t);
            v
        })
    }

    fn load(points: &[(i64, f64)]) -> Influx {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(10_000))).unwrap();
        let mut batch = String::new();
        for &(t, v) in points {
            batch.push_str(&format!("m,hostname=h1 v={v} {}\n", t * 1_000_000_000));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        ix
    }

    /// Statements a batch is drawn from: aggregates (with and without
    /// windows and groups), raw rows, a listing, two empty answers (one
    /// with a `;` in a string) and two that fail.
    const STATEMENT_POOL: [&str; 9] = [
        "SELECT mean(v) FROM m",
        "SELECT mean(v), max(v), count(v) FROM m WHERE time >= 0 AND time < 3600000000000 GROUP BY time(10m), hostname",
        "SELECT v FROM m WHERE hostname = 'h1'",
        "SELECT sum(v) FROM m GROUP BY hostname",
        "SHOW MEASUREMENTS",
        "SELECT v FROM ghost",
        "SELECT count(v) FROM m WHERE hostname = 'a;b'",
        "SELEKT v FROM m",
        "SELECT v FROM",
    ];

    /// `query_batch` against a loop of `query_source`: equal answers, or
    /// the same first error.
    fn batch_equals_loop(source: &mut dyn QuerySource, db: &str, stmts: &[String]) -> Result<(), String> {
        let batch = source.query_batch(db, stmts);
        let looped: lms_util::Result<Vec<QueryResult>> =
            stmts.iter().map(|q| source.query_source(db, q)).collect();
        match (batch, looped) {
            (Ok(b), Ok(l)) if b == l => Ok(()),
            (Err(b), Err(l)) if b.to_string() == l.to_string() => Ok(()),
            (b, l) => Err(format!("batch {b:?}\n loop {l:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// One request carrying a statement list answers what the
        /// statements sent one by one do — over HTTP to a node, and on the
        /// embedded handle (the trait's default loop).
        #[test]
        fn batch_equals_loop_on_one_node(
            points in points_strategy(),
            picks in proptest::collection::vec(0usize..STATEMENT_POOL.len(), 0..8),
            db_exists in proptest::prelude::any::<bool>(),
        ) {
            let mut ix = load(&points);
            let server = InfluxServer::start("127.0.0.1:0", ix.clone()).unwrap();
            let mut client = InfluxClient::connect(server.addr()).unwrap();
            let stmts: Vec<String> = picks.iter().map(|&i| STATEMENT_POOL[i].to_string()).collect();
            let db = if db_exists { "lms" } else { "nowhere" };
            let remote = batch_equals_loop(&mut client, db, &stmts);
            let embedded = batch_equals_loop(&mut ix, db, &stmts);
            drop(client);
            server.shutdown();
            prop_assert!(remote.is_ok(), "over HTTP: {}", remote.unwrap_err());
            prop_assert!(embedded.is_ok(), "embedded: {}", embedded.unwrap_err());
        }
    }

    proptest! {
        /// Windowed sums partition the total: Σ over GROUP BY time(w)
        /// buckets equals the un-windowed sum, for any window size.
        #[test]
        fn window_sums_preserve_totals(
            points in points_strategy(),
            window_s in 1i64..1200,
        ) {
            let ix = load(&points);
            let total = ix
                .query("lms", "SELECT sum(v) FROM m")
                .unwrap()
                .series[0].values[0][1].as_f64().unwrap();
            let windowed = ix
                .query(
                    "lms",
                    &format!(
                        "SELECT sum(v) FROM m WHERE time >= 0 AND time < 3600000000000 GROUP BY time({window_s}s)"
                    ),
                )
                .unwrap();
            let bucket_sum: f64 = windowed.series[0]
                .values
                .iter()
                .filter_map(|row| row[1].as_f64())
                .sum();
            let expect: f64 = points.iter().map(|&(_, v)| v).sum();
            prop_assert!((total - expect).abs() < 1e-6, "total {total} vs {expect}");
            prop_assert!((bucket_sum - expect).abs() < 1e-6, "buckets {bucket_sum} vs {expect}");
        }

        /// count() equals the number of stored points; the raw projection
        /// returns exactly the in-range points in ascending time order.
        #[test]
        fn raw_and_count_agree(points in points_strategy(), split_s in 1i64..3600) {
            let ix = load(&points);
            let split = split_s * 1_000_000_000;
            let before = ix
                .query("lms", &format!("SELECT v FROM m WHERE time < {split}"))
                .unwrap();
            let after = ix
                .query("lms", &format!("SELECT v FROM m WHERE time >= {split}"))
                .unwrap();
            let n_before: usize = before.series.iter().map(|s| s.values.len()).sum();
            let n_after: usize = after.series.iter().map(|s| s.values.len()).sum();
            prop_assert_eq!(n_before + n_after, points.len());
            if let Some(series) = before.series.first() {
                let times: Vec<i64> =
                    series.values.iter().map(|row| row[0].as_i64().unwrap()).collect();
                prop_assert!(times.windows(2).all(|w| w[0] < w[1]), "sorted: {times:?}");
                prop_assert!(times.iter().all(|&t| t < split));
            }
        }

        /// min ≤ mean ≤ max, and first/last match the range endpoints.
        #[test]
        fn aggregate_ordering(points in points_strategy()) {
            let ix = load(&points);
            let r = ix
                .query("lms", "SELECT min(v), mean(v), max(v), first(v), last(v) FROM m")
                .unwrap();
            let row = &r.series[0].values[0];
            let (min, mean, max) = (
                row[1].as_f64().unwrap(),
                row[2].as_f64().unwrap(),
                row[3].as_f64().unwrap(),
            );
            prop_assert!(min <= mean + 1e-9 && mean <= max + 1e-9, "{min} {mean} {max}");
            prop_assert_eq!(row[4].as_f64().unwrap(), points.first().unwrap().1);
            prop_assert_eq!(row[5].as_f64().unwrap(), points.last().unwrap().1);
        }
    }
}
